import numpy as np
import pytest

from adinash.adi import adi_exact
from adinash.entropy import Entropy
from adinash.exact import exact_pairwise_matrices
from adinash.generators import ElFarolSpec, make_el_farol
from adinash.normalform import GameTensor, StrategyProfile, SymmetricGame
from adinash.simplex import is_distribution
from adinash.solvers import (
    BaselineSolver,
    BaselineState,
    baseline_step,
)

from conftest import random_game, random_profile


class TestRegretMatching:
    def test_uniform_fallback_without_positive_regret(self):
        state = BaselineState.initial((2, 3))
        assert np.allclose(state.profile[0], 0.5)
        # drive regrets negative: constant payoffs make regret zero, stays uniform
        g = GameTensor(np.zeros((2, 2, 3)))
        state = baseline_step("rm", state, g, 0.1)
        assert np.allclose(state.profile[0], 0.5)
        assert np.allclose(state.profile[1], 1 / 3)

    def test_positive_regret_proportional_play(self):
        rng = np.random.default_rng(0)
        g = random_game(rng, players=2)
        state = BaselineState.initial(g.action_counts)
        for _ in range(50):
            state = baseline_step("rm", state, g, 0.1)
        for i in range(2):
            positive = np.clip(state.cumulative_regret[i], 0.0, None)
            if positive.sum() > 0:
                assert np.allclose(state.profile[i], positive / positive.sum())

    def test_average_approaches_pennies_equilibrium(self, matching_pennies):
        solver = BaselineSolver(method="rm", iterations=5000).fit(matching_pennies)
        assert adi_exact(
            matching_pennies, solver.profile_, Entropy.none()
        ).total <= 0.05


class TestFictitiousPlay:
    def test_pennies_empirical_averages(self, matching_pennies):
        solver = BaselineSolver(method="fp", iterations=10_000).fit(matching_pennies)
        for s in solver.profile_:
            assert np.abs(s - 0.5).max() <= 0.05
        assert adi_exact(
            matching_pennies, solver.profile_, Entropy.none()
        ).total <= 0.05

    def test_tie_breaks_to_lowest_index(self):
        g = GameTensor(np.zeros((2, 3, 3)))  # all payoffs equal: permanent tie
        state = BaselineState.initial((3, 3))
        state = baseline_step("fp", state, g, 0.1)
        assert state.counts[0].tolist() == [1.0, 0.0, 0.0]


class TestExploitabilityDescent:
    def test_matches_extragradient_with_hard_inner_step(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_game(rng, players=2, max_actions=4)
            start = random_profile(rng, g)
            ed = BaselineState.initial(g.action_counts)
            ed.profile = start
            xg = BaselineState.initial(g.action_counts)
            xg.profile = start
            for _ in range(100):
                ed = baseline_step("ed", ed, g, 0.05)
                xg = baseline_step("extragrad", xg, g, 0.05)
                for a, b in zip(ed.profile, xg.profile):
                    assert np.abs(a - b).max() <= 1e-12

    def test_ed_ignores_inner_step(self):
        # ed's midpoint is the best response whatever inner_step holds: a
        # state carrying a finite inner step steps like extragrad at inf
        rng = np.random.default_rng(3)
        g = random_game(rng, players=3)
        ed = BaselineState.initial(g.action_counts)
        ed.inner_step = 0.5
        xg = BaselineState.initial(g.action_counts)
        xg.inner_step = float("inf")
        for _ in range(20):
            ed = baseline_step("ed", ed, g, 0.1)
            xg = baseline_step("extragrad", xg, g, 0.1)
            for a, b in zip(ed.profile, xg.profile):
                assert a.tobytes() == b.tobytes()
        for a, b in zip(ed.average, xg.average):
            assert a.tobytes() == b.tobytes()

    def test_finite_inner_step_differs(self):
        rng = np.random.default_rng(2)
        g = random_game(rng, players=2)
        a = BaselineState.initial(g.action_counts)
        b = BaselineState.initial(g.action_counts)
        b.inner_step = 0.1
        a = baseline_step("extragrad", a, g, 0.05)
        b = baseline_step("extragrad", b, g, 0.05)
        assert any(
            np.abs(x - y).max() > 1e-9 for x, y in zip(a.profile, b.profile)
        )

    def test_zero_sum_convergence(self, matching_pennies):
        solver = BaselineSolver(
            method="extragrad", learning_rate=0.25, iterations=3000
        ).fit(matching_pennies)
        assert adi_exact(
            matching_pennies, solver.profile_, Entropy.none()
        ).total <= 0.01


class TestPedAndFtrl:
    def test_ped_descends_adi_on_pennies(self, matching_pennies):
        solver = BaselineSolver(
            method="ped", learning_rate=0.1, iterations=2000
        ).fit(matching_pennies)
        assert solver.log_.final_exact_adi() <= 0.01

    def test_ftrl_step_applies_projected_ascent(self):
        rng = np.random.default_rng(3)
        g = random_game(rng, players=2)
        state = BaselineState.initial(g.action_counts)
        before = [np.array(s) for s in state.profile]
        blocks = exact_pairwise_matrices(g, state.profile)
        state = baseline_step("ftrl", state, g, 0.2)
        from adinash.simplex import simplex_project_euclidean

        for i in range(2):
            grad = blocks.payoff_gradient(StrategyProfile(before))[i]
            want = simplex_project_euclidean(before[i] + 0.2 * grad)
            assert np.allclose(state.profile[i], want, atol=1e-12)


class TestSharedStrategyForms:
    def test_symmetric_rm_el_farol(self):
        game = make_el_farol(ElFarolSpec())
        solver = BaselineSolver(method="rm", iterations=20_000, symmetric=True).fit(game)
        assert abs(solver.strategy_[0] - 0.7138) <= 0.02
        assert solver.log_.final_exact_adi() <= 0.01

    def test_symmetric_requires_symmetric_game(self, matching_pennies):
        with pytest.raises(ValueError):
            BaselineSolver(method="rm", symmetric=True).fit(matching_pennies)

    def test_symmetric_fp_counts(self):
        game = make_el_farol(ElFarolSpec())
        state = BaselineState.initial((2,))
        state = baseline_step("fp", state, game, 0.1)
        assert len(state.counts) == 1
        assert state.counts[0].sum() == 1.0

    def test_no_shared_form_for_ed(self):
        game = make_el_farol(ElFarolSpec())
        with pytest.raises(ValueError):
            baseline_step("ed", BaselineState.initial((2,)), game, 0.1)

    def test_shared_form_needs_symmetric_game(self):
        three = GameTensor(np.zeros((3, 2, 2, 2)))
        with pytest.raises(ValueError):
            baseline_step("rm", BaselineState.initial((2,)), three, 0.1)

    @pytest.mark.parametrize("method, tol", [("ftrl", 1e-12), ("rm", 1e-5), ("fp", 1e-12)])
    def test_forms_agree_on_random_symmetric_games(self, method, tol):
        # continuous payoffs: no exact argmax ties for fp to break differently
        rng = np.random.default_rng(7)
        for _ in range(10):
            players, actions = (int(v) for v in rng.integers(2, 5, size=2))
            weights = rng.normal(size=actions + players - 1)

            def batch(own, opponents):
                sorted_opponents = np.sort(opponents, axis=1)
                return np.sin(weights[own] + 1.7 * sorted_opponents @ weights[actions:])

            game = SymmetricGame.from_batch_function(players, actions, batch)
            shared = BaselineState.initial((actions,))
            general = BaselineState.initial((actions,) * players)
            dense = game.expand_to_tensor()
            for _ in range(30):
                shared = baseline_step(method, shared, game, 0.1)
                general = baseline_step(method, general, dense, 0.1)
            assert len(shared.profile) == 1
            for s, a in zip(general.profile, general.average):
                assert np.abs(s - shared.profile[0]).max() <= tol
                assert np.abs(a - shared.average[0]).max() <= tol


class TestValidation:
    def test_unknown_method(self, matching_pennies):
        state = BaselineState.initial((2, 2))
        with pytest.raises(ValueError):
            baseline_step("cfr", state, matching_pennies, 0.1)

    def test_iterates_remain_distributions(self):
        rng = np.random.default_rng(4)
        g = random_game(rng, players=3)
        for method in ("ftrl", "rm", "fp", "ed", "extragrad", "ped"):
            state = BaselineState.initial(g.action_counts)
            for _ in range(30):
                state = baseline_step(method, state, g, 0.3)
                for s in state.profile:
                    assert is_distribution(s, tol=1e-9)

    @pytest.mark.parametrize(
        "params, name",
        [
            (dict(method="bogus", iterations=0), "method"),
            (dict(iterations=0), "iterations"),
            (dict(learning_rate=float("nan")), "learning_rate"),
            (dict(learning_rate=float("inf")), "learning_rate"),
            (dict(learning_rate=0.0), "learning_rate"),
            (dict(method="extragrad", inner_step=0.0), "inner_step"),
            (dict(method="extragrad", inner_step=float("nan")), "inner_step"),
            (dict(method="extragrad", inner_step=-float("inf")), "inner_step"),
            (dict(method="ed", symmetric=True), "symmetric"),
            (dict(exact_adi_every=0), "exact_adi_every"),
            # non-integer counts used to be truncated: 2.5 ran 2 iterations
            (dict(iterations=2.5), "iterations"),
            (dict(iterations=True), "iterations"),
            (dict(exact_adi_every=1.5), "exact_adi_every"),
        ],
    )
    def test_solver_rejects_bad_parameter_by_name(self, params, name):
        # these used to run silently ("avg" as "last"), or fail later with an
        # IndexError (iterations=0, or exact_adi_every=0 leaving the log
        # empty) or a projection error (NaN rate)
        game = make_el_farol(ElFarolSpec(players=3))
        with pytest.raises(ValueError, match=name):
            BaselineSolver(**params).fit(game)

    def test_rejects_what_is_not_a_game(self, matching_pennies):
        from adinash.oracles import TensorOracle

        with pytest.raises(TypeError, match="desk-scale"):
            BaselineSolver().fit(TensorOracle(matching_pennies))


    def test_infinite_inner_step_is_the_hard_midpoint(self, matching_pennies):
        hard = BaselineSolver(method="extragrad", iterations=20).fit(matching_pennies)
        inf = BaselineSolver(
            method="extragrad", iterations=20, inner_step=float("inf")
        ).fit(matching_pennies)
        assert inf.log_.csv_bytes() == hard.log_.csv_bytes()


class TestFittedAttributes:
    def test_report_and_last_iterate(self, matching_pennies):
        rm = BaselineSolver(method="rm", iterations=7).fit(matching_pennies)
        for got, want in zip(rm.last_profile_, StrategyProfile(rm.state_.profile)):
            assert np.array_equal(got, want)
        for got, want in zip(rm.profile_, StrategyProfile(rm.state_.average)):
            assert np.array_equal(got, want)
        ftrl = BaselineSolver(method="ftrl", iterations=7).fit(matching_pennies)
        for got, want in zip(ftrl.profile_, ftrl.last_profile_):
            assert np.array_equal(got, want)

    def test_shared_strategy_and_its_last_iterate(self):
        game = make_el_farol(ElFarolSpec(players=4))
        rm = BaselineSolver(method="rm", iterations=7, symmetric=True).fit(game)
        assert np.array_equal(rm.strategy_, rm.state_.average[0])
        assert np.array_equal(rm.last_strategy_, rm.state_.profile[0])
        assert len(rm.profile_) == 4

    def test_a_symmetric_game_is_expanded_once(self, monkeypatch):
        # the steps and the exact ADI read the one expansion the view holds
        calls = []
        original = SymmetricGame.expand_to_tensor

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(SymmetricGame, "expand_to_tensor", counted)
        game = make_el_farol(ElFarolSpec(players=4))
        BaselineSolver(method="ped", iterations=5, exact_adi_every=1).fit(game)
        assert len(calls) == 1
