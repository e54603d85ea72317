"""Where strategies are checked: every public function checks the strategies
it is given and computes with their bytes as given, and only a
StrategyProfile renormalizes. A profile is built renormalized
(``StrategyProfile(...)``), checked with its bytes kept (``_checked``, what
``as_profile`` does to outside strategies) or stepped (``_stepped``, the rows
a descent step returned, unchecked). The loops hold each iterate as a stepped
profile, so the public functions they call check nothing per step, and build
a renormalized StrategyProfile only for what a fit hands back."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinash.adi import adi_amortized, adi_exact, unregularized_gains
from adinash.entropy import Entropy
from adinash.exact import payoff_gradients
from adinash.generators import (
    ElFarolSpec,
    make_covariant_random,
    make_el_farol,
)
from adinash.normalform import GameTensor, StrategyProfile, as_profile
from adinash.sampling import new_rng, sample_joint_action
from adinash.simplex import SIMPLEX_TOL, _check_rows, as_distribution, is_distribution
from adinash.solvers import (
    AdidasSolver,
    BaselineSolver,
    SymmetricAdidasSolver,
    warmup_anneal_descend,
)
from adinash.solvers import adidas


def _record_profiles(monkeypatch):
    """Patch StrategyProfile.__init__ to record a copy of every argument."""
    seen = []
    init = StrategyProfile.__init__

    def recording(self, strategies):
        seen.append([np.array(s, dtype=float) for s in strategies])
        init(self, strategies)

    monkeypatch.setattr(StrategyProfile, "__init__", recording)
    return seen


def _record_checks(monkeypatch):
    """Patch StrategyProfile._checked to record every strategy check."""
    seen = []
    checked = StrategyProfile._checked.__func__

    def recording(cls, strategies):
        seen.append(strategies)
        return checked(cls, strategies)

    monkeypatch.setattr(StrategyProfile, "_checked", classmethod(recording))
    return seen


FITS = {
    "adidas": lambda n: AdidasSolver(
        entropy="shannon", initial_temperature=1.0, iterations=n, samples=2, seed=1
    ).fit(make_covariant_random(3, 3, 0.0, seed=1)),
    "adidas-averaged": lambda n: AdidasSolver(
        iterations=n, average_iterates=True, exact_gradients=True, seed=2
    ).fit(make_covariant_random(3, 3, 0.0, seed=2)),
    "symmetric": lambda n: SymmetricAdidasSolver(iterations=n, samples=3, seed=3).fit(
        make_el_farol(ElFarolSpec(players=5))
    ),
    "warmup": lambda n: warmup_anneal_descend(
        make_covariant_random(3, 3, 0.0, seed=4), anneal_rounds=2, descent_steps=n,
        anneal_increment=1.0,
    ),
    "baseline": lambda n: BaselineSolver(method="extragrad", inner_step=0.2, iterations=n).fit(
        make_covariant_random(3, 3, 0.0, seed=5)
    ),
}


# the baselines still pass their own iterates to checking functions
UNCHECKED_LOOPS = {"adidas", "adidas-averaged", "symmetric", "warmup"}


@pytest.mark.parametrize("name", sorted(FITS))
def test_profiles_built_per_fit_do_not_grow_with_iterations(monkeypatch, name):
    counts, checks = [], []
    for iterations in (3, 12):
        seen = _record_profiles(monkeypatch)
        checked = _record_checks(monkeypatch)
        FITS[name](iterations)
        counts.append(len(seen))
        checks.append(len(checked))
        monkeypatch.undo()
    assert counts[0] == counts[1]
    assert counts[0] >= 1
    if name in UNCHECKED_LOOPS:
        assert checks[0] == checks[1]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    projection=st.sampled_from(["euclidean", "mirror"]),
    ragged=st.booleans(),
    average=st.booleans(),
    learning_rate=st.sampled_from([0.01, 0.1, 0.5]),
)
def test_unwrapped_iterates_stay_on_the_simplex(seed, projection, ragged, average, learning_rate):
    if ragged:
        game = GameTensor(new_rng(seed).uniform(-1.0, 1.0, size=(3, 2, 3, 4)))
    else:
        game = make_covariant_random(3, 3, 0.0, seed=seed)
    steps = []
    step = adidas.descent_step

    def recording(*args, **kwargs):
        steps.append(step(*args, **kwargs))
        return steps[-1]

    # the fixture-free form of monkeypatch: hypothesis reruns the body
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adidas, "descent_step", recording)
        wrapped = _record_profiles(patch)
        AdidasSolver(
            entropy="shannon", initial_temperature=1.0, learning_rate=learning_rate,
            iterations=15, samples=1, projection=projection, average_iterates=average,
            seed=seed,
        ).fit(game)
    # every iterate, and last_profile_ and profile_ before their wrap
    assert len(steps) == 15 and len(wrapped) == (2 if average else 1)
    for rows in steps + wrapped:
        assert [len(r) for r in rows] == list(game.action_counts)
        assert all(is_distribution(r, SIMPLEX_TOL) for r in rows)
    # the loops hold each step's rows unchecked: the check returns their bytes
    for rows in steps:
        checked = _check_rows(rows) if isinstance(rows, np.ndarray) else map(_check_rows, rows)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(checked, rows))


def _drifted_rows():
    """Nonnegative rows whose sums are 1 +- 1e-7: StrategyProfile changes
    their bytes; every other function uses them as given."""
    rng = np.random.default_rng(0)
    x = rng.dirichlet(np.ones(4), size=3) * (1.0 + np.array([1e-7, -1e-7, 5e-8]))[:, None]
    assert not np.array_equal(StrategyProfile(x).stack, x)
    return x


class _FixedUniforms:
    """A generator stand-in whose ``random`` returns the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.array(uniforms, dtype=float).reshape(-1)

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms.copy()


def _searchsorted_draws(x, uniforms):
    """Each player's inverse-CDF draws, one player at a time."""
    draws = [np.searchsorted(c, u, side="right") for c, u in zip(np.cumsum(x, axis=1), uniforms.T)]
    return np.minimum(np.column_stack(draws), x.shape[1] - 1)


class TestRowsAsGiven:
    def test_as_profile_keeps_the_bytes(self):
        x = _drifted_rows()
        assert np.array_equal(as_profile(x).stack, x)
        assert all(np.array_equal(a, b) for a, b in zip(as_profile(list(x)), x))

    def test_functions_use_the_rows_as_given(self):
        x = _drifted_rows()
        game = make_covariant_random(3, 4, 0.0, seed=3)
        game = game.offset(0.1 - game.payoffs.min())  # Tsallis needs positive payoffs
        y = np.random.default_rng(1).uniform(0.0, 1.0, size=(3, 4))
        grads = payoff_gradients(game, x)
        for kind in (Entropy.none(), Entropy.shannon(0.3), Entropy.tsallis(0.5)):
            for form in (x, list(x), as_profile(x)):
                assert np.array_equal(
                    adi_amortized(form, y, kind).per_player, adi_amortized(x, y, kind).per_player
                )
                assert np.array_equal(
                    adi_exact(game, form, kind).per_player, adi_exact(game, x, kind).per_player
                )
        assert np.array_equal(adi_exact(game, x).per_player, unregularized_gains(grads, x))
        assert np.array_equal(adi_amortized(x, y).per_player, unregularized_gains(y, x))
        draws = sample_joint_action(x, new_rng(5), 200)
        uniforms = new_rng(5).random(3 * 200).reshape(200, 3)
        assert np.array_equal(draws, _searchsorted_draws(x, uniforms))
        # zero entries, uniforms on the cumulative sums' steps, and a last
        # row whose cumulative sum ends at 1 - 5e-7, below the uniforms past it
        x = np.array([[0.0, 0.5, 0.0, 0.5], [0.25, 0.0, 0.0, 0.75], [0.2, 0.3, 0.5 - 5e-7, 0.0]])
        uniforms = np.array([
            [0.0, 0.0, 0.0],
            [0.5, 0.25, 0.2],
            [0.75, 0.25, 0.5],
            [1 - 1e-12, 0.9999999, 0.9999999],
        ])
        draws = sample_joint_action(x, _FixedUniforms(uniforms), len(uniforms))
        assert draws.tolist() == [[1, 0, 0], [3, 3, 1], [3, 3, 2], [3, 3, 3]]
        assert np.array_equal(draws, _searchsorted_draws(x, uniforms))

    def test_drift_times_a_payoff_shift_moves_the_unregularized_gain(self):
        # a row of mass 1 - d gains c * d more from max(g) - g . x when its
        # gradient moves by c; a StrategyProfile repairs the drift first
        x, shift = _drifted_rows(), 1e3
        drift = 1.0 - x.sum(axis=1)
        y = np.random.default_rng(2).uniform(0.0, 1.0, size=(3, 4))
        game = make_covariant_random(3, 4, 0.0, seed=3)
        # player i's exact gradient moves by c times the others' masses
        others = np.prod(x.sum(axis=1)) / x.sum(axis=1)
        moves = [
            (adi_amortized(x, y + shift), adi_amortized(x, y), shift * drift),
            (adi_exact(game.offset(shift), x), adi_exact(game, x), shift * others * drift),
        ]
        for shifted, base, want in moves:
            assert (base.per_player > 1e-3).all()  # the clamp at 0 stays out of it
            got = shifted.per_player - base.per_player
            assert np.allclose(got, want, rtol=0, atol=1e-9)
            assert np.abs(got).max() > 1e-5
        profile = StrategyProfile(x)
        for shifted, base in [
            (adi_amortized(profile, y + shift), adi_amortized(profile, y)),
            (adi_exact(game.offset(shift), profile), adi_exact(game, profile)),
        ]:
            assert np.allclose(shifted.per_player, base.per_player, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "bad", [[0.6, 0.5], [-0.1, 1.1], [np.nan, 1.0], [np.inf, 0.0]], ids=str
    )
    def test_bad_rows_raise_the_same_messages(self, bad):
        with pytest.raises(ValueError) as single:
            as_distribution(bad)
        message = re.escape(str(single.value))
        stack = [[0.5, 0.5], bad]
        game = GameTensor(np.arange(8.0).reshape(2, 2, 2))
        with pytest.raises(ValueError, match=message):
            adi_amortized(stack, np.zeros((2, 2)))
        with pytest.raises(ValueError, match=message):
            adi_exact(game, stack)
        with pytest.raises(ValueError, match=message):
            sample_joint_action(stack, new_rng(0))

    def test_wrong_shapes_raise(self):
        game = GameTensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="1-d"):
            adi_exact(game, [[0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]])
        with pytest.raises(ValueError, match="do not match game"):
            adi_exact(game, [[1 / 3] * 3, [0.5, 0.5]])
        with pytest.raises(ValueError, match="aux vector 1 has shape"):
            adi_amortized([[0.5, 0.5], [0.5, 0.5]], [np.zeros(2), np.zeros(3)])


def test_unregularized_gain_is_clamped_at_zero():
    # the strategy sums to 1 + 2**-52, so max - dot is -2**-52 before the clamp
    grad, x = np.array([1.0, 1.0]), np.array([0.5, 0.5 + 2**-52])
    assert float(grad.max() - grad @ x) < 0.0
    assert unregularized_gains(grad, x) == 0.0
    assert np.array_equal(unregularized_gains(grad[None], x[None]), [0.0])
