"""Each row kernel on an (n, m) stack gives, row for row, the bytes the same
kernel gives on that row alone: the general solver runs every player's
maths on one stack, while the symmetric solver, the baselines and games with
different action counts per player call the kernels one row at a time."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinash import adi
from adinash.entropy import Entropy, best_response
from adinash.generators import ElFarolSpec, make_el_farol
from adinash.normalform import StrategyProfile
from adinash.simplex import (
    as_distribution,
    mirror_step_entropic,
    row_dot,
    simplex_project_euclidean,
    tangent_project,
)

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def shapes_and_rngs(draw):
    """(n, m) with n in 1..6 and m in 1..70, and a generator for the entries."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 70))
    return n, m, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def strategies(rng, n, m):
    """Rows on the simplex, some with zero entries (the clipped-log and
    sparse-response cases)."""
    x = rng.dirichlet(np.full(m, 0.7), size=n)
    x[rng.random((n, m)) < 0.15] = 0.0
    x[x.sum(axis=1) == 0.0, 0] = 1.0
    return x / x.sum(axis=1, keepdims=True)


KINDS = [
    Entropy.shannon(1.0),
    Entropy.shannon(0.05),
    Entropy.shannon(100.0),
    Entropy.shannon(1e-4),  # below the cutoff: the hard branch
    Entropy.none(),
    Entropy.tsallis(1.0),
    Entropy.tsallis(0.3),
    Entropy.tsallis(0.005),  # below the cutoff: the hard branch
]


def gradients(rng, n, m, kind):
    """Payoff gradients; nonnegative for Tsallis, with an all-zero row (the
    zero-scale uniform response) and ties (the split argmax)."""
    if kind.family == "tsallis":
        y = rng.uniform(0.0, 2.0, size=(n, m))
        if n > 1:
            y[-1] = 0.0
    else:
        y = rng.normal(scale=3.0, size=(n, m))
    y[:, : m // 3] = np.round(y[:, : m // 3])
    return y


def identical(stacked, rows):
    return all(np.array_equal(stacked[i], row) for i, row in enumerate(rows))


class TestRowKernels:
    @PROPERTY
    @given(shapes_and_rngs(), st.sampled_from(KINDS))
    def test_response_terms(self, case, kind):
        n, m, rng = case
        nabla = rng.normal(size=(n, m))
        y, x = gradients(rng, n, m, kind), strategies(rng, n, m)
        policy, effect = adi.response_terms(nabla, best_response(y, kind), x, kind)
        rows = [
            adi.response_terms(nabla[i], best_response(y[i], kind), x[i], kind)
            for i in range(n)
        ]
        assert identical(policy, [p for p, _ in rows])
        assert identical(effect, [e for _, e in rows])

    @PROPERTY
    @given(shapes_and_rngs(), st.sampled_from(KINDS))
    def test_gains(self, case, kind):
        n, m, rng = case
        y, x = gradients(rng, n, m, kind), strategies(rng, n, m)
        stacked = adi.adi_amortized(x, y, kind).per_player
        rows = [adi.adi_amortized([x[i]], [y[i]], kind).per_player[0] for i in range(n)]
        assert np.array_equal(stacked, rows)

    @PROPERTY
    @given(shapes_and_rngs(), st.sampled_from([1.0, 1e4, 1e8, 1e17]))
    def test_euclidean_projection(self, case, scale):
        # large entries take the shifted fallback on some rows only
        n, m, rng = case
        v = rng.normal(size=(n, m))
        v[rng.random(n) < 0.5] *= scale
        out = simplex_project_euclidean(v)
        assert identical(out, [simplex_project_euclidean(row) for row in v])

    @PROPERTY
    @given(shapes_and_rngs(), st.floats(0.0, 1.0))
    def test_mirror_step(self, case, step):
        n, m, rng = case
        x = rng.dirichlet(np.ones(m), size=n) + 1e-3
        x /= x.sum(axis=1, keepdims=True)
        g = rng.normal(scale=10.0, size=(n, m))
        out = mirror_step_entropic(x, g, step)
        assert identical(out, [mirror_step_entropic(x[i], g[i], step) for i in range(n)])

    @PROPERTY
    @given(shapes_and_rngs())
    def test_tangent_projection(self, case):
        n, m, rng = case
        g = rng.normal(scale=5.0, size=(n, m))
        assert identical(tangent_project(g), [tangent_project(row) for row in g])

    @PROPERTY
    @given(shapes_and_rngs())
    def test_renormalization(self, case):
        n, m, rng = case
        x = strategies(rng, n, m) * (1.0 + rng.uniform(-5e-7, 5e-7, size=(n, 1)))
        assert identical(StrategyProfile(x).stack, [as_distribution(row) for row in x])

    def test_row_dot_is_np_dot(self):
        # the gains' dot products kept the bytes of np.dot on each row
        rng = np.random.default_rng(0)
        for m in range(1, 101):
            a, b = rng.normal(size=(2, 4, m))
            assert np.array_equal(row_dot(a, b), [np.dot(u, v) for u, v in zip(a, b)])
            assert row_dot(a[0], b[0]) == np.dot(a[0], b[0])

    def test_first_bad_row_is_named(self):
        x = np.array([[0.5, 0.5], [0.6, 0.6], [-0.5, 1.5]])
        with pytest.raises(ValueError) as single:
            as_distribution(x[1])
        with pytest.raises(ValueError, match=re.escape(str(single.value))):
            StrategyProfile(x)

    def test_one_strategy_is_one_row(self):
        # only a profile validates a stack; a single strategy stays a vector
        with pytest.raises(ValueError, match="1-d"):
            as_distribution(np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="1-d"):
            StrategyProfile([[0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]])
        game = make_el_farol(ElFarolSpec(players=3))
        with pytest.raises(ValueError, match="1-d"):
            game.deviation_payoffs(np.full((2, 2), 0.5))
