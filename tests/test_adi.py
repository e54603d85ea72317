import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinash.adi import (
    adi_amortized,
    adi_exact,
    adi_gradient,
    consensus_loss_check,
    response_terms,
)
from adinash.entropy import SHANNON_TEMP_MIN, Entropy, best_response
from adinash.exact import exact_pairwise_matrices, payoff_gradient
from adinash.generators import BlottoSpec, make_blotto, make_modified_shapley
from adinash.normalform import GameTensor, StrategyProfile
from adinash.solvers import BaselineSolver

from conftest import (
    best_responses,
    finite_difference_adi_gradient,
    random_game,
    random_profile,
)


class TestAdiExact:
    def test_shapley_uniform_is_nash(self):
        game = make_modified_shapley(0.5)
        report = adi_exact(game, StrategyProfile.uniform([3, 3]), Entropy.none())
        assert report.total == pytest.approx(0.0, abs=1e-9)
        assert np.all(report.per_player >= 0.0)

    def test_blotto_pure_nash(self):
        game = make_blotto(BlottoSpec(5, 3, 4))  # small variant of the same family
        from adinash.generators import blotto_allocations

        alloc = blotto_allocations(5, 3)
        def index_of(a):
            return int(np.flatnonzero((alloc == np.array(a)).all(axis=1))[0])

        profile = StrategyProfile.one_hot(
            [index_of((5, 0, 0)), index_of((5, 0, 0)), index_of((0, 5, 0)), index_of((0, 0, 5))],
            [alloc.shape[0]] * 4,
        )
        report = adi_exact(game, profile, Entropy.none())
        assert report.total == pytest.approx(0.0, abs=1e-9)

    def test_biased_game_value(self, biased_game):
        x = StrategyProfile([[1 / 3] * 3, [0.5, 0.5]])
        report = adi_exact(biased_game, x, Entropy.none())
        assert report.per_player[0] == pytest.approx(1 / 3, abs=1e-12)
        assert report.per_player[1] == pytest.approx(0.0, abs=1e-12)
        assert report.total == pytest.approx(1 / 3, abs=1e-12)

    def test_unregularized_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = random_game(rng)
            x = random_profile(rng, g)
            report = adi_exact(g, x, Entropy.none())
            assert report.total >= 0.0
            assert np.all(report.per_player >= 0.0)
            assert report.total == pytest.approx(report.per_player.sum())

    def test_ed_at_uniform_is_not_negative(self):
        # ED ends at uniform with one strategy summing to 1 + 2e-16, where
        # max - dot once gave that player -2.8e-17
        game = make_modified_shapley(0.5)
        solver = BaselineSolver(method="ed", learning_rate=0.05, iterations=4000).fit(game)
        assert np.all(adi_exact(game, solver.profile_, Entropy.none()).per_player >= 0.0)
        assert np.all(np.array(solver.log_.column("adi_exact")) >= 0.0)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(1)
        g = random_game(rng, players=2)
        x = random_profile(rng, g)
        base = adi_exact(g, x, Entropy.none())
        shifted_payoffs = np.array(g.payoffs)
        shifted_payoffs[0] += 7.5  # shift player 0's payoffs only
        shifted = adi_exact(GameTensor(shifted_payoffs), x, Entropy.none())
        assert shifted.per_player[0] == pytest.approx(base.per_player[0], abs=1e-9)

    def test_regularized_flag(self, biased_game):
        x = StrategyProfile.uniform([3, 2])
        assert not adi_exact(biased_game, x, Entropy.none()).regularized
        assert not adi_exact(biased_game, x, Entropy.shannon(0.0)).regularized
        assert adi_exact(biased_game, x, Entropy.shannon(0.5)).regularized


class TestAdiAmortized:
    def test_exact_estimates_reproduce_exact_adi(self):
        rng = np.random.default_rng(2)
        for kind in (Entropy.none(), Entropy.shannon(0.3)):
            g = random_game(rng, players=3)
            x = random_profile(rng, g)
            y = [payoff_gradient(g, x, i) for i in range(3)]
            est = adi_amortized(x, y, kind)
            ref = adi_exact(g, x, kind)
            assert est.total == pytest.approx(ref.total, abs=1e-9)

    def test_tsallis_exact_substitution(self):
        rng = np.random.default_rng(3)
        g = random_game(rng, players=2, low=0.5, high=1.5)
        x = random_profile(rng, g)
        y = [payoff_gradient(g, x, i) for i in range(2)]
        est = adi_amortized(x, y, Entropy.tsallis(0.5))
        ref = adi_exact(g, x, Entropy.tsallis(0.5))
        assert est.total == pytest.approx(ref.total, abs=1e-9)

    def test_zero_estimates_tsallis(self):
        x = StrategyProfile.uniform([3, 3])
        y = [np.zeros(3), np.zeros(3)]
        est = adi_amortized(x, y, Entropy.tsallis(0.5))
        # zero scale: response is uniform, only the entropy terms remain (zero)
        assert est.total == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        x = StrategyProfile.uniform([3, 2])
        with pytest.raises(ValueError):
            adi_amortized(x, [np.zeros(2), np.zeros(2)], Entropy.none())

    @pytest.mark.parametrize(
        "x,aux",
        [
            ([[0.5, 0.5]], [[1.0, 0.0], [2.0, 3.0]]),
            ([[0.5, 0.5]] * 2, [np.zeros(2)] * 3),
            ([[0.5, 0.5]] * 2, np.zeros((3, 2))),
            ([[0.5, 0.5]] * 2, np.zeros((1, 2))),
        ],
        ids=["extra", "extra-list", "extra-stack", "short-stack"],
    )
    def test_aux_count_must_match_players(self, x, aux):
        # extra vectors were ignored, and the first case returned [0.5]
        with pytest.raises(ValueError, match="aux"):
            adi_amortized(x, aux, Entropy.none())


TEMPERATURE_GRID = (1.0, 0.1, 0.01)


class TestGradients:
    @pytest.mark.parametrize("temperature", TEMPERATURE_GRID)
    @pytest.mark.parametrize("players", (2, 3))
    def test_shannon_matches_finite_differences(self, temperature, players):
        rng = np.random.default_rng(40 + players)
        for _ in range(4):
            g = random_game(rng, players=players, max_actions=5)
            x = random_profile(rng, g)
            blocks = exact_pairwise_matrices(g, x)
            grads = [payoff_gradient(g, x, i) for i in range(players)]
            nablas = blocks.payoff_gradient(x)
            kind = Entropy.shannon(temperature)
            analytic = adi_gradient(blocks, nablas, best_responses(grads, kind), x, kind)
            h = 1e-6 if temperature <= 0.05 else 1e-5
            for i in range(players):
                fd = finite_difference_adi_gradient(g, x, kind, i, h)
                rel = np.abs(analytic[i] - fd).max() / max(1.0, np.abs(analytic[i]).max())
                assert rel <= 1e-4

    def test_response_terms_switch_at_the_shannon_cutoff(self):
        # the smooth branch starts exactly where Entropy.is_hard ends
        nabla = np.array([0.3, 0.1, 0.2])
        y = np.array([0.0, 1e-3, 2e-3])  # gaps of one cutoff: no one-hot softmax
        x = np.array([0.2, 0.3, 0.5])
        below = Entropy.shannon(np.nextafter(SHANNON_TEMP_MIN, 0.0))
        at = Entropy.shannon(SHANNON_TEMP_MIN)
        assert below.is_hard and not at.is_hard
        policy, effect = response_terms(nabla, best_response(y, below), x, below)
        assert np.array_equal(effect, np.array([0.0, 0.0, 1.0]) - x)
        assert np.array_equal(policy, nabla - below.temperature * (np.log(x) + 1.0))
        _, effect = response_terms(nabla, best_response(y, at), x, at)
        assert np.abs(effect - (np.array([0.0, 0.0, 1.0]) - x)).max() > 0.1

    @pytest.mark.parametrize("power", TEMPERATURE_GRID)
    @pytest.mark.parametrize("players", (2, 3))
    def test_tsallis_matches_finite_differences(self, power, players):
        rng = np.random.default_rng(60 + players)
        for _ in range(4):
            g = random_game(rng, players=players, max_actions=5, low=0.5, high=1.5)
            x = random_profile(rng, g)
            blocks = exact_pairwise_matrices(g, x)
            grads = [payoff_gradient(g, x, i) for i in range(players)]
            nablas = blocks.payoff_gradient(x)
            kind = Entropy.tsallis(power)
            analytic = adi_gradient(blocks, nablas, best_responses(grads, kind), x, kind)
            h = 1e-6 if power <= 0.05 else 1e-5
            for i in range(players):
                fd = finite_difference_adi_gradient(g, x, kind, i, h)
                rel = np.abs(analytic[i] - fd).max() / max(1.0, np.abs(analytic[i]).max())
                assert rel <= 1e-4

    def test_shannon_zero_temperature_limit(self):
        rng = np.random.default_rng(4)
        g = random_game(rng, players=3)
        x = random_profile(rng, g)
        blocks = exact_pairwise_matrices(g, x)
        grads = [payoff_gradient(g, x, i) for i in range(3)]
        nablas = blocks.payoff_gradient(x)
        kind = Entropy.shannon(0.0)
        got = adi_gradient(blocks, nablas, best_responses(grads, kind), x, kind)
        from adinash.entropy import _hard_argmax

        for i in range(3):
            want = -grads[i]
            for j in range(3):
                if j != i:
                    br = _hard_argmax(grads[j])
                    want = want + blocks.matrix(j, i).T @ (br - x[j])
            assert np.allclose(got[i], want, atol=1e-12)

    def test_tsallis_zero_power_limit(self):
        rng = np.random.default_rng(5)
        g = random_game(rng, players=2, low=0.5, high=1.5)
        x = random_profile(rng, g)
        blocks = exact_pairwise_matrices(g, x)
        grads = [payoff_gradient(g, x, i) for i in range(2)]
        nablas = blocks.payoff_gradient(x)
        kind = Entropy.tsallis(0.0)
        got = adi_gradient(blocks, nablas, best_responses(grads, kind), x, kind)
        from adinash.entropy import _hard_argmax
        from adinash.simplex import tangent_project

        for i in range(2):
            j = 1 - i
            br = _hard_argmax(grads[j])
            want = -(grads[i] - np.max(grads[i])) + blocks.matrix(j, i).T @ (br - x[j])
            # the policy constant differs; tangent projections agree
            assert np.allclose(
                tangent_project(got[i]), tangent_project(want), atol=1e-12
            )

    def test_symmetric_game_symmetric_gradients(self):
        rng = np.random.default_rng(6)
        from adinash.normalform import SymmetricGame

        def payoff(own, opponents):
            return own + 0.3 * opponents.sum(axis=1) + 0.1 * own * opponents.min(axis=1)

        sg = SymmetricGame.from_batch_function(3, 3, payoff).offset(0.0)
        dense = sg.expand_to_tensor()
        x = rng.dirichlet(np.ones(3))
        profile = StrategyProfile([x] * 3)
        blocks = exact_pairwise_matrices(dense, profile)
        grads = [payoff_gradient(dense, profile, i) for i in range(3)]
        nablas = blocks.payoff_gradient(profile)
        kind = Entropy.tsallis(0.5)
        out = adi_gradient(blocks, nablas, best_response(grads, kind), profile, kind)
        assert np.allclose(out[0], out[1], atol=1e-9)
        assert np.allclose(out[1], out[2], atol=1e-9)

    def test_qre_fixed_point_has_zero_tangent_gradient(self, matching_pennies):
        # descend the regularized loss at fixed temperature until stationary,
        # then the analytic tangent-projected gradient must vanish
        from adinash.simplex import simplex_project_euclidean, tangent_project

        kind = Entropy.shannon(0.5)
        x = StrategyProfile.uniform([2, 2])
        for _ in range(4000):
            blocks = exact_pairwise_matrices(matching_pennies, x)
            grads = [payoff_gradient(matching_pennies, x, i) for i in range(2)]
            nablas = blocks.payoff_gradient(x)
            step = adi_gradient(blocks, nablas, best_response(grads, kind), x, kind)
            x = StrategyProfile(
                [
                    simplex_project_euclidean(x[i] - 0.05 * tangent_project(step[i]))
                    for i in range(2)
                ]
            )
        blocks = exact_pairwise_matrices(matching_pennies, x)
        grads = [payoff_gradient(matching_pennies, x, i) for i in range(2)]
        nablas = blocks.payoff_gradient(x)
        final = adi_gradient(blocks, nablas, best_response(grads, kind), x, kind)
        norm = max(np.abs(tangent_project(g)).max() for g in final)
        assert norm <= 1e-5


class TestGradientInputs:
    @staticmethod
    def _case(counts, kind):
        rng = np.random.default_rng(11)
        game = GameTensor(rng.uniform(0.5, 1.5, size=(len(counts), *counts)))
        x = StrategyProfile([rng.dirichlet(np.ones(m)) for m in counts])
        blocks = exact_pairwise_matrices(game, x)
        nablas = blocks.payoff_gradient(x)
        return blocks, nablas, best_responses(nablas, kind), x

    @pytest.mark.parametrize("kind", [Entropy.shannon(0.3), Entropy.tsallis(0.5)], ids=str)
    def test_stacked_rows_unlike_x_raise_naming_the_argument(self, kind):
        # a (1, 3) nablas or response stack broadcast into a wrong 3 x 3 gradient
        blocks, nablas, responses, x = self._case((3, 3, 3), kind)
        for bad in (nablas[:1], nablas[:, :2], list(nablas[:2])):
            with pytest.raises(ValueError, match="nablas"):
                adi_gradient(blocks, bad, responses, x, kind)
        for bad in (nablas[:1], nablas[:, :2]):
            with pytest.raises(ValueError, match="responses"):
                adi_gradient(blocks, nablas, best_response(bad, kind), x, kind)

    @pytest.mark.parametrize("kind", [Entropy.shannon(0.3), Entropy.tsallis(0.5)], ids=str)
    def test_ragged_rows_unlike_x_raise_naming_the_argument(self, kind):
        # zip dropped the players past a short list
        blocks, nablas, responses, x = self._case((2, 3, 4), kind)
        with pytest.raises(ValueError, match="nablas"):
            adi_gradient(blocks, nablas[:2], responses, x, kind)
        with pytest.raises(ValueError, match="nablas"):
            adi_gradient(blocks, [nablas[0], nablas[2], nablas[1]], responses, x, kind)
        with pytest.raises(ValueError, match="responses"):
            adi_gradient(blocks, nablas, responses[:2], x, kind)
        with pytest.raises(ValueError, match="responses"):
            adi_gradient(blocks, nablas, responses[::-1], x, kind)

    def test_tsallis_zero_rejects_negative_gradients(self, matching_pennies):
        # the estimate used to return the unregularized gains here, while the
        # gradient already raised: both take the one response now
        x = StrategyProfile([[0.8, 0.2], [0.7, 0.3]])
        kind = Entropy.tsallis(0.0)
        with pytest.raises(ValueError, match="offset the game"):
            adi_amortized(x, [np.array([-1.0, 0.5]), np.array([0.2, 0.3])], kind)
        with pytest.raises(ValueError, match="offset the game"):
            adi_exact(matching_pennies, x, kind)
        shifted = adi_exact(matching_pennies.offset(2.0), x, kind).total
        assert shifted == pytest.approx(adi_exact(matching_pennies, x).total)


class TestConsensusIdentity:
    def test_identity_on_random_positive_games(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_game(rng, players=2, low=0.2, high=2.0)
            x = random_profile(rng, g)
            lhs, rhs = consensus_loss_check(g, x)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_identity_three_player(self):
        rng = np.random.default_rng(8)
        g = random_game(rng, players=3, low=0.2, high=2.0)
        x = random_profile(rng, g)
        lhs, rhs = consensus_loss_check(g, x)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_at_response_point_both_sides_match(self):
        rng = np.random.default_rng(9)
        g = random_game(rng, players=2, low=0.2, high=2.0)
        x = random_profile(rng, g)
        from adinash.entropy import best_response

        responses = []
        for k in range(2):
            grad = payoff_gradient(g, x, k)
            responses.append(best_response(grad, Entropy.tsallis(1.0)).dist)
        lhs, rhs = consensus_loss_check(g, StrategyProfile(responses))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_homogeneous_in_payoff_scale(self):
        rng = np.random.default_rng(10)
        g = random_game(rng, players=2, low=0.2, high=2.0)
        x = random_profile(rng, g)
        lhs1, rhs1 = consensus_loss_check(g, x)
        scaled = GameTensor(g.payoffs * 3.0)
        lhs3, rhs3 = consensus_loss_check(scaled, x)
        assert lhs3 == pytest.approx(3.0 * lhs1, abs=1e-9)
        assert rhs3 == pytest.approx(3.0 * rhs1, abs=1e-9)

    def test_rejects_nonpositive_payoffs(self, matching_pennies):
        x = StrategyProfile.uniform([2, 2])
        with pytest.raises(ValueError):
            consensus_loss_check(matching_pennies, x)


@st.composite
def games_and_profiles(draw):
    """Random 2-3 player games with 2-4 actions each and payoffs in [0, 1]
    (nonnegative, so Tsallis responses are defined), with an interior
    profile."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = random_game(rng, players=draw(st.integers(2, 3)), low=0.0, high=1.0)
    return game, random_profile(rng, game)


ALL_KINDS = (
    Entropy.none(),
    Entropy.shannon(0.05),
    Entropy.shannon(0.5),
    Entropy.tsallis(0.25),
    Entropy.tsallis(1.0),
)
SHIFT_INVARIANT_KINDS = ALL_KINDS[:3]  # the Tsallis bonus scales with payoffs


def _relabel(game, profile, order):
    """The same game with new player k being old player order[k]."""
    payoffs = np.transpose(game.payoffs[list(order)], (0, *(1 + p for p in order)))
    return GameTensor(payoffs), StrategyProfile([profile[p] for p in order])


class TestAdiProperties:
    @settings(max_examples=40, deadline=None)
    @given(games_and_profiles())
    def test_amortized_with_exact_gradients_is_exact(self, case):
        game, x = case
        y = [payoff_gradient(game, x, k) for k in range(game.players)]
        for kind in ALL_KINDS:
            exact = adi_exact(game, x, kind).per_player
            assert np.array_equal(adi_amortized(x, y, kind).per_player, exact)

    @settings(max_examples=40, deadline=None)
    @given(games_and_profiles(), st.floats(-5.0, 5.0))
    def test_unregularized_nonnegative_and_shift_invariant(self, case, shift):
        game, x = case
        assert adi_exact(game, x, Entropy.none()).total >= 0.0
        shifted = game.offset(shift)
        for kind in SHIFT_INVARIANT_KINDS:
            base = adi_exact(game, x, kind).per_player
            assert np.allclose(adi_exact(shifted, x, kind).per_player, base, rtol=0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(games_and_profiles(), st.randoms(use_true_random=False))
    def test_relabelling_players_permutes_the_gains(self, case, random):
        game, x = case
        order = list(range(game.players))
        random.shuffle(order)
        relabelled, y = _relabel(game, x, order)
        for kind in ALL_KINDS:
            base = adi_exact(game, x, kind).per_player
            got = adi_exact(relabelled, y, kind).per_player
            assert np.allclose(got, base[order], rtol=0, atol=1e-9)
