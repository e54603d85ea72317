import itertools

import numpy as np
import pytest

from adinash.exact import exact_pairwise_matrices, payoff_gradient
from adinash.normalform import GameTensor, StrategyProfile
from adinash.generators import (
    ElFarolSpec,
    make_bernoulli_metagame,
    make_el_farol,
    planted_winrates,
)
from adinash.oracles import BernoulliOracle, SymmetricOracle, TensorOracle
from adinash.sampling import (
    AuxiliaryState,
    estimate_pairwise_matrices,
    new_rng,
    sample_actions,
    sample_joint_action,
    sample_mean,
    update_aux,
)

from conftest import random_game, random_profile
from test_exact import same_layout


class TestJointActionSampling:
    def test_deterministic_profile(self):
        x = StrategyProfile.one_hot([2, 0, 1], [3, 2, 2])
        rng = new_rng(0)
        for _ in range(10):
            assert sample_joint_action(x, rng)[0].tolist() == [2, 0, 1]

    def test_uniform_frequencies(self):
        x = StrategyProfile.uniform([2])
        rng = new_rng(1)
        draws = 100_000
        ones = sum(sample_joint_action(x, rng)[0, 0] for _ in range(draws))
        assert abs(ones / draws - 0.5) <= 0.01

    def test_fixed_seed_reproducible(self):
        x = StrategyProfile([np.array([0.2, 0.5, 0.3]), np.array([0.6, 0.4])])
        seq1 = [sample_joint_action(x, new_rng(7)) for _ in range(1)]
        runs = []
        for _ in range(2):
            rng = new_rng(7)
            runs.append([sample_joint_action(x, rng)[0].tolist() for _ in range(50)])
        assert runs[0] == runs[1]

    def test_draws_are_independent_per_player(self):
        x = StrategyProfile([np.array([0.5, 0.5]), np.array([0.5, 0.5])])
        rng = new_rng(2)
        joint_counts = np.zeros((2, 2))
        for _ in range(40_000):
            a = sample_joint_action(x, rng)[0]
            joint_counts[tuple(a)] += 1
        freq = joint_counts / joint_counts.sum()
        assert np.abs(freq - 0.25).max() <= 0.01


    @pytest.mark.parametrize("count", [0, 1, 2, 7, 40])
    def test_vector_draw_matches_single_draws(self, count):
        s = np.array([0.1, 0.2, 0.3, 0.4])
        rng = new_rng(3)
        single_rng = new_rng(3)
        draws = sample_actions(s, rng, count)
        assert draws.shape == (count,)
        assert draws.tolist() == [int(sample_actions(s, single_rng)[0]) for _ in range(count)]
        # both generators end at the same point of the stream
        assert rng.random() == single_rng.random()

    @pytest.mark.parametrize("players", [3, 4, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_strategy_draws_match_joint_draws(self, players, seed):
        # the symmetric solver draws the n - 2 other opponents with
        # sample_actions; on an exactly normalized strategy (one that a
        # StrategyProfile leaves unchanged) that is the joint sampler's draw
        s = np.array([0.125, 0.5, 0.25, 0.125])
        rng = new_rng(seed)
        joint_rng = new_rng(seed)
        for _ in range(20):
            shared = sample_actions(s, rng, players - 2)
            assert tuple(shared) == tuple(sample_joint_action([s] * (players - 2), joint_rng)[0])


class TestPairwiseEstimation:
    def test_two_player_deterministic_recovers_tables(self, biased_game):
        oracle = TensorOracle(biased_game)
        blocks = estimate_pairwise_matrices(oracle, np.array([(0, 0)]))
        assert np.array_equal(blocks.matrix(0, 1), biased_game.player_tensor(0))
        assert np.array_equal(blocks.matrix(1, 0), biased_game.player_tensor(1).T)
        # independent of the conditioning joint action for two players
        blocks2 = estimate_pairwise_matrices(oracle, np.array([(2, 1)]))
        assert np.array_equal(blocks2.matrix(0, 1), blocks.matrix(0, 1))

    def test_query_counter_per_fill(self):
        g =GameTensor(np.zeros((3, 4, 4, 4)))
        oracle = TensorOracle(g)
        estimate_pairwise_matrices(oracle, np.array([(0, 0, 0)]))
        assert oracle.queries == 6 * 16
        estimate_pairwise_matrices(oracle, np.array([(1, 2, 3)]))
        assert oracle.queries == 2 * 6 * 16

    def test_sampled_blocks_unbiased(self):
        rng = np.random.default_rng(3)
        g = random_game(rng, players=3, max_actions=3)
        x = random_profile(rng, g)
        oracle = TensorOracle(g)
        exact = exact_pairwise_matrices(g, x)
        draws = 10_000
        total = None
        sample_rng = new_rng(11)
        for _ in range(draws):
            joint = sample_joint_action(x, sample_rng)
            blocks = estimate_pairwise_matrices(oracle, joint)
            stacked = np.concatenate(
                [blocks.matrix(*key).ravel() for key in blocks.pairs()]
            )
            total = stacked if total is None else total + stacked
        mean = total / draws
        reference = np.concatenate(
            [exact.matrix(*key).ravel() for key in exact.pairs()]
        )
        # 3-sigma bound per entry with payoff range <= 2
        sigma = 2.0 / np.sqrt(draws)
        assert np.abs(mean - reference).max() <= 3.0 * sigma

    def test_oracle_failure_carries_context(self):
        class Broken(TensorOracle):
            def pair_payoffs(self, owner, partner, base_joint):
                raise OSError("bad simulator")

        rng = np.random.default_rng(4)
        g = random_game(rng, players=2)
        with pytest.raises(RuntimeError, match=r"pair \(0, 1\)"):
            estimate_pairwise_matrices(Broken(g), np.array([(0, 0)]))


class TestGradientFromEstimates:
    def test_two_player_exact(self, biased_game):
        oracle = TensorOracle(biased_game)
        x = StrategyProfile([[0.2, 0.5, 0.3], [0.4, 0.6]])
        blocks = estimate_pairwise_matrices(oracle, np.array([(0, 0)]))
        grad = blocks.payoff_gradient(x)[0]
        assert np.allclose(grad, payoff_gradient(biased_game, x, 0), atol=1e-12)

    def test_average_over_partners(self):
        rng = np.random.default_rng(5)
        g = random_game(rng, players=3)
        x = random_profile(rng, g)
        blocks = exact_pairwise_matrices(g, x)
        grads = blocks.payoff_gradient(x)
        assert len(grads) == 3
        for i in range(3):
            partners = [j for j in range(3) if j != i]
            manual = sum(blocks.matrix(i, j) @ x[j] for j in partners) / 2.0
            assert np.allclose(grads[i], manual, atol=1e-12)

    def test_unbiased_against_exact_gradient(self):
        rng = np.random.default_rng(6)
        g = random_game(rng, players=3, max_actions=3)
        x = random_profile(rng, g)
        oracle = TensorOracle(g)
        sample_rng = new_rng(12)
        draws = 5000
        acc = np.zeros(g.action_counts[0])
        for _ in range(draws):
            joint = sample_joint_action(x, sample_rng)
            blocks = estimate_pairwise_matrices(oracle, joint)
            acc += blocks.payoff_gradient(x)[0]
        mean = acc / draws
        exact = payoff_gradient(g, x, 0)
        assert np.abs(mean - exact).max() <= 3.0 * 2.0 / np.sqrt(draws)

    def test_player_out_of_range(self):
        blocks = exact_pairwise_matrices(GameTensor(np.zeros((3, 2, 2, 2))), [[0.5, 0.5]] * 3)
        for pair in ((-1, 0), (0, 3), (1, 1)):
            with pytest.raises(ValueError, match=rf"\({pair[0]}, {pair[1]}\) is not an ordered pair"):
                blocks.matrix(*pair)


class TestAuxiliaryUpdates:
    def test_first_step_copies_estimate(self):
        state = AuxiliaryState.zeros([3])
        grad = [np.array([1.0, -2.0, 0.5])]
        new = update_aux(state, grad, 0.01)
        assert np.array_equal(new.y[0], grad[0])
        assert new.t == 2

    def test_fixed_point(self):
        grad = [np.array([2.0, 1.0])]
        state = AuxiliaryState([np.array([2.0, 1.0])], t=50)
        new = update_aux(state, grad, 0.1)
        assert np.allclose(new.y[0], grad[0])

    def test_convex_step(self):
        state = AuxiliaryState([np.array([0.0])], t=1000)
        new = update_aux(state, [np.array([2.0])], 0.5)
        assert new.y[0][0] == pytest.approx(1.0)

    def test_rejects_bad_rate(self):
        state = AuxiliaryState.zeros([2])
        with pytest.raises(ValueError):
            update_aux(state, [np.zeros(2)], 1.5)

    @pytest.mark.parametrize(
        "counts,grads",
        [
            ((3, 3, 3), np.ones((1, 3))),
            ((3, 3, 3), np.ones((3, 2))),
            ((2, 3), [np.ones(2)]),
            ((2, 3), [np.ones(2), np.ones(2)]),
        ],
        ids=["one-row-stack", "short-rows", "short-list", "wrong-row"],
    )
    def test_rejects_estimates_unlike_the_state(self, counts, grads):
        # a (1, 3) stack set all three trackers to it, and zip dropped the
        # players past a short list
        with pytest.raises(ValueError, match="grad_estimates"):
            update_aux(AuxiliaryState.zeros(counts), grads, 0.5)

    def test_geometric_tracking(self):
        # frozen target: error contracts by (1 - rate) once t > 1/rate
        target = [np.array([1.0, 3.0])]
        state = AuxiliaryState.zeros([2])
        rate = 0.2
        errors = []
        for _ in range(40):
            state = update_aux(state, target, rate)
            errors.append(np.abs(state.y[0] - target[0]).max())
        for k in range(10, 39):
            if errors[k] > 1e-14:
                assert errors[k + 1] == pytest.approx(errors[k] * (1 - rate), rel=1e-9)

    def test_amortized_matches_exact_after_convergence(self):
        from adinash.adi import adi_amortized, adi_exact
        from adinash.entropy import Entropy

        rng = np.random.default_rng(7)
        g = random_game(rng, players=3)
        x = random_profile(rng, g)
        oracle = TensorOracle(g)
        state = AuxiliaryState.zeros(g.action_counts)
        for _ in range(400):
            blocks = exact_pairwise_matrices(g, x)
            grads = [blocks.payoff_gradient(x)[i] for i in range(3)]
            state = update_aux(state, grads, 0.1)
        est = adi_amortized(x, state.y, Entropy.shannon(0.1))
        ref = adi_exact(g, x, Entropy.shannon(0.1))
        assert est.total == pytest.approx(ref.total, abs=1e-6)

    def test_amortized_from_sampled_play_within_tolerance(self):
        # frozen profile, sampled joint play averaged through y: the long-run
        # amortized value lands within sampling noise of the exact one
        from adinash.adi import adi_amortized, adi_exact
        from adinash.entropy import Entropy

        rng = np.random.default_rng(8)
        g = random_game(rng, players=3, max_actions=3)
        x = random_profile(rng, g)
        oracle = TensorOracle(g)
        state = AuxiliaryState.zeros(g.action_counts)
        sample_rng = new_rng(5)
        rate = 0.005
        for _ in range(4000):
            joint = sample_joint_action(x, sample_rng)
            blocks = estimate_pairwise_matrices(oracle, joint)
            grads = [blocks.payoff_gradient(x)[i] for i in range(3)]
            state = update_aux(state, grads, rate)
        kind = Entropy.shannon(0.2)
        est = adi_amortized(x, state.y, kind)
        ref = adi_exact(g, x, kind)
        # y entry noise ~ sqrt(rate/2) * per-draw sigma; allow generous slack
        assert est.total == pytest.approx(ref.total, abs=0.1)
        worst = max(
            np.abs(state.y[i] - payoff_gradient(g, x, i)).max() for i in range(3)
        )
        assert worst <= 0.15


class TestStackedFills:
    """The general loop draws every joint action of a step in one call and
    fills every block of them in one read; both give the bytes of the
    sample-by-sample, pair-by-pair path."""

    @pytest.mark.parametrize("counts", [(3, 3, 3, 3), (2, 4, 3)], ids=["square", "ragged"])
    def test_stacked_draw_is_successive_single_draws(self, counts):
        rng = np.random.default_rng(1)
        x = StrategyProfile([rng.dirichlet(np.ones(m)) for m in counts])
        stacked, single = new_rng(4), new_rng(4)
        joints = sample_joint_action(x, stacked, 25)
        assert joints.shape == (25, len(counts))
        assert joints.tolist() == [sample_joint_action(x, single)[0].tolist() for _ in range(25)]
        assert stacked.random() == single.random()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TensorOracle(GameTensor(np.random.default_rng(2).normal(size=(4, 3, 3, 3, 3)))),
            lambda: TensorOracle(GameTensor(np.random.default_rng(3).normal(size=(3, 2, 3, 4)))),
            lambda: SymmetricOracle(make_el_farol(ElFarolSpec(players=4))),
            lambda: SymmetricOracle(make_el_farol(ElFarolSpec(players=2))),
            lambda: make_bernoulli_metagame(planted_winrates(4, 3, seed=1), seed=5),
            lambda: make_bernoulli_metagame(planted_winrates(2, 3, seed=1), seed=5),
        ],
        ids=["tensor", "tensor-ragged", "symmetric", "symmetric-2", "bernoulli", "bernoulli-2"],
    )
    def test_stacked_fill_is_the_mean_of_single_fills(self, make):
        stacked, single = make(), make()
        rng = np.random.default_rng(4)
        joints = np.column_stack(
            [rng.integers(0, m, size=3) for m in stacked.action_counts]
        )
        blocks = estimate_pairwise_matrices(stacked, joints)
        # one pair_payoffs read per pair per joint, in the order of the
        # sample-by-sample, pair-by-pair fill (a Bernoulli oracle's draws
        # follow its query order)
        pairs = list(itertools.permutations(range(stacked.players), 2))
        fills = [{key: single.pair_payoffs(*key, tuple(joint)) for key in pairs} for joint in joints]
        for key in pairs:
            want = sample_mean(np.stack([fill[key] for fill in fills]))
            assert np.array_equal(blocks.matrix(*key), want)
        assert stacked.queries == single.queries
        one = estimate_pairwise_matrices(make(), np.array([joints[0]]))
        for key in pairs:
            assert np.array_equal(one.matrix(*key), fills[0][key])

    def test_overridden_read_goes_pair_by_pair(self):
        # a subclass's own pair_payoffs is called as a single read, never
        # with the arrays of the one-call gather
        calls = []

        class Logged(TensorOracle):
            def pair_payoffs(self, owner, partner, base_joint):
                calls.append((owner, partner, base_joint))
                return super().pair_payoffs(owner, partner, base_joint)

        game = GameTensor(np.random.default_rng(6).normal(size=(3, 3, 3, 3)))
        joints = np.array([[0, 1, 2], [2, 0, 1]])
        blocks = estimate_pairwise_matrices(Logged(game), joints)
        pairs = list(itertools.permutations(range(3), 2))
        assert calls == [(i, j, tuple(joint)) for joint in joints.tolist() for i, j in pairs]
        want = estimate_pairwise_matrices(TensorOracle(game), joints)
        for key in pairs:
            assert same_layout(blocks.matrix(*key), want.matrix(*key))
        assert blocks.stack is not None

        class Broken(TensorOracle):
            def pair_payoffs(self, owner, partner, base_joint):
                raise OSError("bad simulator")

        with pytest.raises(RuntimeError, match=r"pair \(0, 1\) at joint \(0, 1, 2\)"):
            estimate_pairwise_matrices(Broken(game), joints)

        class Misshapen(TensorOracle):
            def pair_payoffs(self, owner, partner, base_joint):
                block = super().pair_payoffs(owner, partner, base_joint)
                return block[:2] if (owner, partner) == (2, 1) else block

        with pytest.raises(ValueError, match=r"pair \(2, 1\) needs a block of shape \(3, 3\)"):
            estimate_pairwise_matrices(Misshapen(game), joints)

    def test_overriding_stochastic_fill_reads_joint_major(self):
        # a Bernoulli oracle's draws follow its query order, so a stack read
        # pair by pair equals single reads only in the fill's order: every
        # pair at the first joint, then every pair at the next
        class PairByPair(BernoulliOracle):
            def pair_payoffs(self, owner, partner, base_joint):
                return super().pair_payoffs(owner, partner, base_joint)

        def make():
            return PairByPair(planted_winrates(3, 4, seed=2), seed=6)

        stacked, single = make(), make()
        joints = np.array([[0, 1, 2], [3, 3, 0], [1, 0, 1]])
        blocks = estimate_pairwise_matrices(stacked, joints)
        pairs = list(itertools.permutations(range(3), 2))
        reads = {key: [] for key in pairs}
        for joint in joints.tolist():
            for key in pairs:
                reads[key].append(single.pair_payoffs(*key, tuple(joint)))
        for key in pairs:
            want = sample_mean(np.stack(reads[key]))
            assert same_layout(blocks.matrix(*key), want)
        assert stacked.queries == single.queries == 3 * 6 * 16
        # the pair-major order draws other bytes
        pair_major = make()
        first = [pair_major.pair_payoffs(0, 1, tuple(joint)) for joint in joints.tolist()]
        assert not np.array_equal(blocks.matrix(0, 1), sample_mean(np.stack(first)))

    @pytest.mark.parametrize("samples", [0, -1, 1.5, True])
    def test_sample_count_is_checked(self, samples):
        x = StrategyProfile.uniform([2, 3])
        with pytest.raises(ValueError, match="samples"):
            sample_joint_action(x, new_rng(0), samples)

    def test_tensor_stack_read_matches_single_reads(self):
        game = GameTensor(np.random.default_rng(5).normal(size=(3, 3, 3, 3)))
        oracle = TensorOracle(game)
        owners, partners = np.array([0, 2, 1]), np.array([1, 0, 2])
        joints = np.array([[0, 1, 2], [2, 2, 0]])
        blocks = oracle.pair_payoffs(owners, partners, joints)
        assert blocks.shape == (2, 3, 3, 3) and blocks.flags.c_contiguous
        assert oracle.queries == blocks.size
        for s, joint in enumerate(joints):
            for p, (i, j) in enumerate(zip(owners, partners)):
                block = oracle.pair_payoffs(int(i), int(j), joint)
                assert np.array_equal(blocks[s, p], block.T if j < i else block)

    @pytest.mark.parametrize(
        "joints,match",
        [
            (np.array([[0, 3, 1]]), "integers in"),
            (np.array([[0.0, 1.0, 1.0]]), "integers in"),
            (np.array([[0, 1]]), "shape"),
        ],
        ids=["out-of-range", "float", "short"],
    )
    def test_tensor_stack_read_rejects_bad_joints(self, joints, match):
        oracle = TensorOracle(GameTensor(np.zeros((3, 3, 3, 3))))
        with pytest.raises(ValueError, match=match):
            oracle.pair_payoffs(np.array([0, 1]), np.array([1, 0]), joints)
        with pytest.raises(ValueError, match="one action count"):
            TensorOracle(GameTensor(np.zeros((2, 2, 3)))).pair_payoffs(
                np.array([0]), np.array([1]), np.array([[0, 0]])
            )

    @pytest.mark.parametrize(
        "joints",
        [np.array([[0, 2]]), np.array([[0.0, 1.0]]), np.array([[0, 1, 1]]), np.empty((0, 2), int)],
        ids=["out-of-range", "float", "long", "empty"],
    )
    def test_stacked_fill_rejects_bad_joints(self, joints):
        # a two-player symmetric read has no rest to range-check
        oracle = SymmetricOracle(make_el_farol(ElFarolSpec(players=2)))
        with pytest.raises(ValueError, match="joint actions"):
            estimate_pairwise_matrices(oracle, joints)
        assert oracle.queries == 0
