import numpy as np
import pytest
from scipy import special

from adinash.entropy import (
    BestResponse,
    Entropy,
    best_response,
    entropy_value,
    tsallis_scale,
)


class TestEntropyKind:
    def test_validation(self):
        with pytest.raises(ValueError):
            Entropy.shannon(-0.1)
        with pytest.raises(ValueError):
            Entropy.tsallis(1.5)
        with pytest.raises(ValueError):
            Entropy("boltzmann", 1.0)

    @pytest.mark.parametrize("family", ["shannon", "tsallis", "none"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_temperature(self, family, value):
        # a NaN Shannon temperature used to pass, and a run with it logged
        # NaN estimates
        with pytest.raises(ValueError, match="temperature|power"):
            Entropy(family, value)

    def test_anneal_halves_and_clips(self):
        kind = Entropy.shannon(100.0)
        kind = kind.anneal()
        assert kind.temperature == 1.0  # halving clips into [0, 1]
        assert kind.anneal().temperature == 0.5

    def test_anneal_snaps_to_zero(self):
        assert Entropy.shannon(0.0015).anneal().temperature == 0.0
        assert Entropy.tsallis(0.015).anneal().temperature == 0.0

    def test_hard_cutoffs(self):
        assert not Entropy.shannon(1e-3).is_hard
        assert Entropy.shannon(9e-4).is_hard
        assert not Entropy.tsallis(1e-2).is_hard
        assert Entropy.tsallis(9e-3).is_hard


class TestEntropyValue:
    def test_shannon_uniform(self):
        x = np.array([0.5, 0.5])
        assert entropy_value(x, Entropy.shannon(1.0)) == pytest.approx(np.log(2))

    def test_one_hot_is_zero(self):
        x = np.array([0.0, 1.0, 0.0])
        assert entropy_value(x, Entropy.shannon(2.0)) == 0.0
        assert entropy_value(x, Entropy.tsallis(0.5), scale=3.0) == pytest.approx(0.0)

    def test_tsallis_closed_form(self):
        x = np.array([0.5, 0.5])
        # s/(p+1) * (1 - sum x^2) with p=1, s=4
        assert entropy_value(x, Entropy.tsallis(1.0), scale=4.0) == pytest.approx(1.0)

    def test_zero_log_zero(self):
        x = np.array([1.0, 0.0])
        assert entropy_value(x, Entropy.shannon(1.0)) == 0.0


class TestBestResponse:
    def test_hard_tie_split(self):
        br = best_response(np.array([1.0, 1.0, 0.0]), Entropy.none())
        assert np.allclose(br.dist, [0.5, 0.5, 0.0])

    def test_hard_with_negative_entries(self):
        br = best_response(np.array([-2.0, -1.0]), Entropy.shannon(0.0))
        assert np.allclose(br.dist, [0.0, 1.0])

    def test_tsallis_closed_form(self):
        br = best_response(np.array([4.0, 1.0]), Entropy.tsallis(0.5))
        assert np.allclose(br.dist, [16 / 17, 1 / 17], atol=1e-12)
        assert br.scale == pytest.approx(np.sqrt(17.0))

    def test_shannon_uniform_on_equal(self):
        br = best_response(np.array([0.0, 0.0]), Entropy.shannon(1.0))
        assert np.allclose(br.dist, [0.5, 0.5])

    def test_shannon_matches_softmax(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=5)
        br = best_response(y, Entropy.shannon(0.37))
        assert np.allclose(br.dist, special.softmax(y / 0.37), atol=1e-12)

    def test_tsallis_rejects_negative(self):
        with pytest.raises(ValueError):
            best_response(np.array([-0.1, 1.0]), Entropy.tsallis(0.5))

    def test_tsallis_zero_gradient_uniform(self):
        br = best_response(np.zeros(4), Entropy.tsallis(0.5))
        assert np.allclose(br.dist, np.full(4, 0.25))
        assert br.scale == 0.0

    def test_tsallis_first_order_condition(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.uniform(0.05, 1.0)
            y = rng.uniform(0.1, 3.0, size=rng.integers(2, 6))
            br = best_response(y, Entropy.tsallis(p))
            assert np.abs(y - br.scale * br.dist**p).max() <= 1e-9

    def test_high_temperature_approaches_uniform(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(-5, 5, size=6)
        br = best_response(y, Entropy.shannon(1e6))
        assert np.abs(br.dist - 1 / 6).max() <= 1e-6

    def test_low_temperature_approaches_argmax(self):
        y = np.array([0.3, 0.9, 0.1])
        br = best_response(y, Entropy.shannon(1e-3))
        assert br.dist[1] > 0.999

    def test_hard_invariant_to_positive_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.normal(size=5)
            a = best_response(y, Entropy.none()).dist
            b = best_response(3.7 * y, Entropy.none()).dist
            assert np.allclose(a, b)

    def test_biased_game_hard_response_expectation(self, biased_game):
        # sample the column player's action, best respond, average: the true
        # best row never appears, its mass splits across the other two rows
        rng = np.random.default_rng(4)
        table = biased_game.player_tensor(0)
        total = np.zeros(3)
        draws = 40000
        for _ in range(draws):
            column = rng.integers(2)
            total += best_response(table[:, column], Entropy.none()).dist
        mean = total / draws
        assert np.allclose(mean, [0.0, 0.5, 0.5], atol=0.02)
        assert mean[0] == 0.0

    def test_tsallis_hard_branch_scale(self):
        br = best_response(np.array([2.0, 5.0, 5.0]), Entropy.tsallis(0.005))
        assert np.allclose(br.dist, [0.0, 0.5, 0.5])
        assert br.scale == 5.0


class TestTaylorRelation:
    def test_small_power_matches_shannon_scaled(self):
        # small p: Tsallis bonus ~ p * s * shannon entropy + O(p^2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.dirichlet(np.ones(4) * 2.0)
            s = float(rng.uniform(0.5, 2.0))
            shannon = float(special.entr(x).sum())
            errors = []
            for p in (0.02, 0.01, 0.005):
                tsallis = entropy_value(x, Entropy.tsallis(p), scale=s)
                errors.append(abs(tsallis - p * s * shannon))
            # quadratic scaling: quartering p divides the error by ~16
            assert errors[2] <= errors[0] / 8.0 + 1e-12


def test_tsallis_scale_overflow_safe():
    y = np.array([1e6, 2e6])
    s = tsallis_scale(y, 0.01)  # power 100 on raw entries would overflow
    assert np.isfinite(s)
    assert s >= 2e6
