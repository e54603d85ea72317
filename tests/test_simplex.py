import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinash.simplex import (
    as_distribution,
    is_distribution,
    mirror_step_entropic,
    simplex_project_euclidean,
    tangent_project,
)


class TestEuclideanProjection:
    @pytest.mark.parametrize(
        "v,expected",
        [
            ([0.2, 0.8], [0.2, 0.8]),
            ([2.0, 0.0], [1.0, 0.0]),
            ([0.6, 0.6], [0.5, 0.5]),
        ],
    )
    def test_known_points(self, v, expected):
        assert np.allclose(simplex_project_euclidean(v), expected, atol=1e-12)

    @pytest.mark.parametrize(
        "v,expected",
        [
            # the cumulative sum rounds the 1 away, so no support index qualifies
            ([1e17, 0.0, 1.0], [1.0, 0.0, 0.0]),
            # the threshold loses its low bits, so the direct mass is 0.99999998
            ([1e8, 1e8 + 1e-7, 3.0], [0.5, 0.5, 0.0]),
        ],
    )
    def test_large_entries(self, v, expected):
        p = simplex_project_euclidean(v)
        assert is_distribution(p)
        assert np.allclose(p, expected, atol=1e-6)

    def test_idempotent_and_feasible(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(scale=3.0, size=rng.integers(2, 8))
            p = simplex_project_euclidean(v)
            assert is_distribution(p)
            assert np.allclose(simplex_project_euclidean(p), p, atol=1e-12)

    def test_is_nearest_point(self):
        # check optimality against dense grid search on the 3-simplex
        rng = np.random.default_rng(1)
        grid = []
        steps = 60
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                grid.append([i / steps, j / steps, 1.0 - (i + j) / steps])
        grid = np.array(grid)
        for _ in range(20):
            v = rng.normal(scale=2.0, size=3)
            p = simplex_project_euclidean(v)
            best = grid[np.argmin(((grid - v) ** 2).sum(axis=1))]
            assert ((p - v) ** 2).sum() <= ((best - v) ** 2).sum() + 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            simplex_project_euclidean([np.nan, 0.5])


class TestTangentProjection:
    @pytest.mark.parametrize(
        "g,expected",
        [
            ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),
            ([1.0, 0.0], [0.5, -0.5]),
            ([3.0, 0.0, 0.0], [2.0, -1.0, -1.0]),
        ],
    )
    def test_known_points(self, g, expected):
        assert np.allclose(tangent_project(g), expected, atol=1e-12)

    def test_sums_to_zero_and_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            g = rng.normal(size=rng.integers(2, 9))
            t = tangent_project(g)
            assert abs(t.sum()) < 1e-12
            assert np.allclose(tangent_project(t), t, atol=1e-12)


class TestMirrorStep:
    def test_zero_gradient_fixed_point(self):
        x = np.array([0.3, 0.7])
        assert np.allclose(mirror_step_entropic(x, [0.0, 0.0], 0.5), x)

    def test_constant_gradient_cancels(self):
        x = np.array([0.2, 0.3, 0.5])
        assert np.allclose(mirror_step_entropic(x, [4.0, 4.0, 4.0], 0.7), x)

    def test_closed_form(self):
        out = mirror_step_entropic([0.5, 0.5], [np.log(2.0), 0.0], 1.0)
        assert np.allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            mirror_step_entropic([0.0, 1.0], [1.0, 0.0], 0.1)

    def test_underflow_is_a_numeric_failure(self):
        # exp(-1500) underflows: the result would have a zero coordinate
        with pytest.raises(FloatingPointError):
            mirror_step_entropic([0.5, 0.5], [0.0, 1e5], 0.015)

    def test_stays_interior(self):
        rng = np.random.default_rng(3)
        x = np.array([0.25, 0.25, 0.5])
        for _ in range(50):
            x = mirror_step_entropic(x, rng.normal(scale=5.0, size=3), 0.3)
            assert np.all(x > 0.0)
            assert abs(x.sum() - 1.0) < 1e-12


class TestSimplexProperties:
    # the threshold has the input's magnitude, so the rounding error of the
    # projected mass grows with it; past SIMPLEX_TOL the projection is retaken
    # from the shift x - max(x), whose threshold lies in [-1, 0]
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8))
    def test_euclidean_projection_lands_on_simplex(self, v):
        assert is_distribution(simplex_project_euclidean(v))

    # gradients and steps small enough that no coordinate underflows (that
    # case raises FloatingPointError, see TestMirrorStep)
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
        st.data(),
        st.floats(0.0, 1.0),
    )
    def test_mirror_step_lands_on_simplex(self, mass, data, step):
        x = np.array(mass) / np.sum(mass)
        g = data.draw(st.lists(st.floats(-100.0, 100.0), min_size=x.size, max_size=x.size))
        out = mirror_step_entropic(x, g, step)
        assert is_distribution(out)
        assert np.all(out > 0.0)


class TestValidation:
    def test_renormalizes_small_drift(self):
        x = as_distribution([0.5 + 4e-7, 0.5])
        assert abs(x.sum() - 1.0) < 1e-15

    def test_rejects_large_drift(self):
        with pytest.raises(ValueError):
            as_distribution([0.6, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            as_distribution([-0.1, 1.1])
