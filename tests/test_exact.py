import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinash import exact
from adinash.exact import (
    PairwiseMatrices,
    exact_pairwise_matrices,
    expected_utility,
    pairwise_jacobian_exact,
    payoff_gradient,
    payoff_gradients,
)
from adinash.generators import (
    ElFarolSpec,
    make_covariant_random,
    make_el_farol,
    planted_winrates,
)
from adinash.normalform import GameTensor, StrategyProfile
from adinash.oracles import SymmetricOracle, TensorOracle
from adinash.sampling import estimate_pairwise_matrices
from adinash.simplex import simplex_project_euclidean

from conftest import random_game, random_profile


def tensordot_chain(tensor, profile, keep):
    """Reference: contract every axis outside `keep` with one np.tensordot
    each, in player order."""
    out = tensor
    removed = 0
    for j in range(len(profile)):
        if j in keep:
            continue
        out = np.tensordot(out, profile[j], axes=([j - removed], [0]))
        removed += 1
    return out


def reference_block(game, x, owner, partner):
    block = tensordot_chain(game.player_tensor(owner), x, keep=(owner, partner))
    return block.T if partner < owner else block


def same_layout(got, want):
    return (
        np.array_equal(got, want)
        and got.flags.c_contiguous == want.flags.c_contiguous
        and got.flags.f_contiguous == want.flags.f_contiguous
    )


@st.composite
def ragged_games_and_profiles(draw):
    """2-5 players with 1-4 actions each, and a profile of Euclidean
    projections of random points, so many entries are exactly zero."""
    players = draw(st.integers(2, 5))
    counts = draw(st.lists(st.integers(1, 4), min_size=players, max_size=players))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = GameTensor(rng.uniform(-1, 1, size=(players, *counts)))
    x = [simplex_project_euclidean(rng.normal(size=m)) for m in counts]
    return game, x


class TestExpectedUtility:
    def test_biased_game_value(self, biased_game):
        x = StrategyProfile([[0.0, 1.0, 0.0], [0.5, 0.5]])
        assert expected_utility(biased_game, x, 0) == pytest.approx(-0.5, abs=1e-12)

    def test_constant_game(self):
        g = GameTensor(np.full((2, 3, 2), 4.25))
        rng = np.random.default_rng(0)
        x = random_profile(rng, g)
        for i in range(2):
            assert expected_utility(g, x, i) == pytest.approx(4.25, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(1)
        g = random_game(rng, players=3, max_actions=2)
        x = random_profile(rng, g)
        for i in range(3):
            brute = 0.0
            for joint in itertools.product(*(range(m) for m in g.action_counts)):
                prob = np.prod([x[j][joint[j]] for j in range(3)])
                brute += prob * g.payoffs[(i, *joint)]
            assert expected_utility(g, x, i) == pytest.approx(brute, abs=1e-12)

    def test_shape_mismatch(self, biased_game):
        with pytest.raises(ValueError):
            expected_utility(biased_game, StrategyProfile.uniform([2, 2]), 0)


class TestPayoffGradient:
    def test_biased_game_gradient(self, biased_game):
        x = StrategyProfile([[1 / 3] * 3, [0.5, 0.5]])
        assert np.allclose(payoff_gradient(biased_game, x, 0), [0.0, -0.5, -0.5])

    def test_one_hot_column(self, biased_game):
        x = StrategyProfile([[1 / 3] * 3, [1.0, 0.0]])
        assert np.allclose(payoff_gradient(biased_game, x, 0), [0.0, 1.0, -2.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        g = random_game(rng, players=3)
        x = random_profile(rng, g)
        h = 1e-6
        for i in range(3):
            grad = payoff_gradient(g, x, i)
            for a in range(g.action_counts[i]):
                values = []
                for sign in (1.0, -1.0):
                    pert = [np.array(s) for s in x]
                    pert[i][a] += sign * h
                    # off the simplex: the multilinear extension, by tensordot
                    values.append(float(tensordot_chain(g.player_tensor(i), pert, keep=())))
                fd = (values[0] - values[1]) / (2 * h)
                assert grad[a] == pytest.approx(fd, abs=1e-6)

    def test_utility_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_game(rng)
            x = random_profile(rng, g)
            for i in range(g.players):
                dot = float(np.dot(x[i], payoff_gradient(g, x, i)))
                assert dot == pytest.approx(expected_utility(g, x, i), abs=1e-9)

    def test_symmetric_payoff_gradients_per_player(self):
        game = make_el_farol(ElFarolSpec(players=3))
        x = random_profile(np.random.default_rng(10), game)
        for i, grad in enumerate(payoff_gradients(game, x)):
            assert np.array_equal(grad, payoff_gradient(game, x, i))

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-player"])
    def test_symmetric_game_matches_its_expansion(self, shared):
        # a shared profile takes the deviation-payoff path, a mixed per-player
        # profile the enumeration of opponent supports
        game = planted_winrates(4, 3, seed=0)
        rng = np.random.default_rng(12)
        rows = [rng.dirichlet(np.ones(3)) for _ in range(1 if shared else 4)]
        x = StrategyProfile(rows * 4 if shared else rows)
        dense = game.expand_to_tensor()
        want = payoff_gradients(dense, x)
        assert np.abs(np.array(payoff_gradients(game, x)) - want).max() <= 1e-12
        for i in range(game.players):
            assert abs(expected_utility(game, x, i) - expected_utility(dense, x, i)) <= 1e-12


class TestPairwiseJacobian:
    def test_two_player_block_is_payoff_table(self, biased_game):
        rng = np.random.default_rng(4)
        x = random_profile(rng, biased_game)
        block = pairwise_jacobian_exact(biased_game, x, 0, 1)
        assert np.array_equal(block, biased_game.player_tensor(0))
        # independent of the profile
        y = random_profile(rng, biased_game)
        assert np.array_equal(
            pairwise_jacobian_exact(biased_game, y, 0, 1), block
        )

    def test_gradient_identity_across_partners(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_game(rng, players=3)
            x = random_profile(rng, g)
            for i in range(3):
                grad = payoff_gradient(g, x, i)
                for j in range(3):
                    if j == i:
                        continue
                    block = pairwise_jacobian_exact(g, x, i, j)
                    assert np.abs(block @ x[j] - grad).max() <= 1e-9

    def test_uniform_third_player_average(self):
        rng = np.random.default_rng(6)
        g = random_game(rng, players=3, max_actions=3)
        m3 = g.action_counts[2]
        x = StrategyProfile(
            [
                rng.dirichlet(np.ones(g.action_counts[0])),
                rng.dirichlet(np.ones(g.action_counts[1])),
                np.full(m3, 1.0 / m3),
            ]
        )
        block = pairwise_jacobian_exact(g, x, 0, 1)
        slices = np.mean(
            [g.player_tensor(0)[:, :, a3] for a3 in range(m3)], axis=0
        )
        assert np.allclose(block, slices, atol=1e-12)

    def test_rejects_same_player(self, biased_game):
        x = StrategyProfile.uniform([3, 2])
        with pytest.raises(ValueError):
            pairwise_jacobian_exact(biased_game, x, 1, 1)

    def test_symmetric_game_is_refused_naming_pair_payoff_matrix(self):
        game = make_el_farol(ElFarolSpec(players=3))
        x = StrategyProfile.uniform(game.action_counts)
        with pytest.raises(TypeError, match="pair_payoff_matrix"):
            pairwise_jacobian_exact(game, x, 0, 1)
        with pytest.raises(TypeError, match="pair_payoff_matrix"):
            exact_pairwise_matrices(game, x)
        # the player indices are checked first
        with pytest.raises(ValueError, match="owner"):
            pairwise_jacobian_exact(game, x, 3, 1)

    def test_container_gradient_average(self):
        rng = np.random.default_rng(7)
        g = random_game(rng, players=3)
        x = random_profile(rng, g)
        blocks = exact_pairwise_matrices(g, x)
        for i in range(3):
            assert np.allclose(
                blocks.payoff_gradient(x)[i], payoff_gradient(g, x, i), atol=1e-12
            )


class TestBatchedContraction:
    """The batched kernel reproduces per-chain np.tensordot bytes."""

    @settings(max_examples=60, deadline=None)
    @given(ragged_games_and_profiles())
    def test_matches_tensordot_chains_bitwise(self, case):
        game, x = case
        # the library validates its input, so both sides read the validated strategies
        x = StrategyProfile(x)
        blocks = exact_pairwise_matrices(game, x)
        for i, j in blocks.pairs():
            assert same_layout(blocks.matrix(i, j), reference_block(game, x, i, j))
            assert same_layout(
                pairwise_jacobian_exact(game, x, i, j), reference_block(game, x, i, j)
            )
        batched = payoff_gradients(game, x)
        for i in range(game.players):
            want = tensordot_chain(game.player_tensor(i), x, keep=(i,))
            assert payoff_gradient(game, x, i).tobytes() == want.tobytes()
            assert batched[i].tobytes() == want.tobytes()
            value = expected_utility(game, x, i)
            want = float(tensordot_chain(game.player_tensor(i), x, keep=()))
            assert np.float64(value).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize(
        "game",
        [make_el_farol().expand_to_tensor(), make_covariant_random(4, 6, 0.0, seed=0)],
        ids=["el_farol_10", "covariant_4x6"],
    )
    def test_benchmark_games_bitwise(self, game):
        rng = np.random.default_rng(8)
        x = random_profile(rng, game)
        blocks = exact_pairwise_matrices(game, x)
        for i, j in blocks.pairs():
            assert same_layout(blocks.matrix(i, j), reference_block(game, x, i, j))

    def test_owner_chunks_give_the_same_bytes(self, monkeypatch):
        game = make_el_farol(ElFarolSpec(players=6)).expand_to_tensor()
        x = random_profile(np.random.default_rng(9), game)
        whole = exact_pairwise_matrices(game, x)
        split = exact._owner_chunks
        used = []
        monkeypatch.setattr(exact, "_owner_chunks", lambda *a: used.append(split(*a)) or used[-1])
        monkeypatch.setattr(exact, "DESK_SCALE_ENTRIES", 300)
        exact._chain_plan.cache_clear()
        chunked = exact_pairwise_matrices(game, x)
        assert len(used) == 1 and len(used[0]) >= 3
        for key in whole.pairs():
            got, want = chunked.matrix(*key), whole.matrix(*key)
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides

    @pytest.mark.parametrize(
        "game,stacked",
        [
            (make_covariant_random(4, 3, 0.0, seed=3), True),
            (GameTensor(np.random.default_rng(11).uniform(-1.0, 1.0, size=(3, 2, 3, 4))), False),
        ],
        ids=["square_4x3", "ragged_2_3_4"],
    )
    def test_one_owner_per_chunk_keeps_bytes_and_layout(self, game, stacked, monkeypatch):
        x = random_profile(np.random.default_rng(4), game)
        pairs = tuple(itertools.permutations(range(game.players), 2))

        def run():
            return payoff_gradients(game, x), exact_pairwise_matrices(game, x)

        whole = run()
        # a budget of one entry gives every owner a chunk of its own
        monkeypatch.setattr(exact, "DESK_SCALE_ENTRIES", 1)
        chains = exact._pair_chains(game.players, pairs)
        assert len(exact._owner_chunks(game.action_counts, chains, 1)) == game.players
        chunked = run()
        for grads, blocks in (whole, chunked):
            # one array when every player has one action count, else a list
            assert type(grads) is (np.ndarray if stacked else list)
            assert (blocks.stack is not None) == stacked
        for i in range(game.players):
            assert chunked[0][i].tobytes() == whole[0][i].tobytes()
        for key in pairs:
            got, want = chunked[1].matrix(*key), whole[1].matrix(*key)
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides


class TestPlayerIndices:
    @pytest.fixture
    def case(self):
        game = make_covariant_random(3, 2, 0.0, seed=0)
        return game, StrategyProfile.uniform(game.action_counts)

    @pytest.mark.parametrize(
        "owner,partner,name", [(0, 5, "partner"), (-1, 0, "owner"), (3, 0, "owner"), (0, 1.0, "partner")]
    )
    def test_pairwise_rejects_bad_indices(self, case, owner, partner, name):
        game, x = case
        with pytest.raises(ValueError, match=name):
            pairwise_jacobian_exact(game, x, owner, partner)

    @pytest.mark.parametrize("player", [-1, 3, True])
    def test_gradient_and_utility_reject_bad_indices(self, case, player):
        game, x = case
        with pytest.raises(ValueError, match="player"):
            payoff_gradient(game, x, player)
        with pytest.raises(ValueError, match="player"):
            expected_utility(game, x, player)

    def test_symmetric_game_rejects_bad_indices(self):
        game = make_el_farol(ElFarolSpec(players=3))
        x = StrategyProfile.uniform(game.action_counts)
        with pytest.raises(ValueError, match="player"):
            payoff_gradient(game, x, -1)

    def test_numpy_integers_accepted(self, case):
        game, x = case
        want = payoff_gradient(game, x, 1)
        assert np.array_equal(payoff_gradient(game, x, np.int64(1)), want)


class TestStoredLayout:
    """Blocks keep the layout their reader made: BLAS gives a C and an F
    block's products different last bits, so the batched products must read
    the memory the per-pair products read."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TensorOracle(make_covariant_random(4, 3, 0.0, seed=4)),
            lambda: TensorOracle(GameTensor(np.random.default_rng(5).normal(size=(3, 2, 3, 4)))),
            lambda: SymmetricOracle(make_el_farol(ElFarolSpec(players=5))),
        ],
        ids=["tensor", "tensor-ragged", "symmetric"],
    )
    def test_sampled_fill_matches_single_reads(self, make):
        oracle = make()
        rng = np.random.default_rng(6)
        joint = [int(rng.integers(0, m)) for m in oracle.action_counts]
        stacked = estimate_pairwise_matrices(oracle, np.array([joint]))
        single = make()
        for i, j in itertools.permutations(range(oracle.players), 2):
            assert same_layout(stacked.matrix(i, j), single.pair_payoffs(i, j, joint))
        assert oracle.queries == single.queries

    def test_exact_blocks_match_tensordot(self):
        game = make_el_farol(ElFarolSpec(players=5)).expand_to_tensor()
        x = random_profile(np.random.default_rng(7), game)
        blocks = exact_pairwise_matrices(game, x)
        for i, j in itertools.permutations(range(game.players), 2):
            assert same_layout(blocks.matrix(i, j), reference_block(game, x, i, j))

    @pytest.mark.parametrize(
        "counts,shapes,flags,match",
        [
            ((3, 3, 3), [(3, 3)] * 5 + [(3, 2)], [False] * 6, r"pair \(2, 1\)"),
            ((3, 3, 3), [(3, 3)] * 6, [False] * 5, r"pair \(2, 1\)"),
            ((3, 3, 3), [(3, 3)] * 5, [False] * 6, r"pair \(2, 1\)"),
            ((3, 3, 3), [(3, 3)] * 6, [False] * 7, "6 blocks and 7 flags for 6 pairs"),
            ((2, 3), [(2, 3), (2, 3)], [False, False], r"pair \(1, 0\)"),
            ((2, 3), [(2, 3), (2, 3)], [False, True], None),
        ],
        ids=["stack-shape", "stack-flags", "stack-blocks", "extra-flag", "ragged-shape", "ragged"],
    )
    def test_constructor_checks_blocks_and_flags(self, counts, shapes, flags, match):
        raw = [np.zeros(shape) for shape in shapes]
        if len(set(shapes)) == 1:
            raw = np.stack(raw)
        if match is None:
            blocks = PairwiseMatrices(raw, flags, counts)
            assert blocks.pairs() == [(0, 1), (1, 0)]
            assert blocks.matrix(1, 0).shape == (3, 2)
            return
        with pytest.raises(ValueError, match=match):
            PairwiseMatrices(raw, flags, counts)

    @pytest.mark.parametrize("source", ["tensor", "exact", "symmetric"])
    def test_stacked_products_match_per_pair_products(self, source):
        rng = np.random.default_rng(9)
        game = make_covariant_random(5, 4, 0.0, seed=2)
        x = random_profile(rng, game)
        if source == "exact":
            blocks = exact_pairwise_matrices(game, x)
        else:
            oracle = TensorOracle(game)
            if source == "symmetric":
                game = make_el_farol(ElFarolSpec(players=5))
                x = random_profile(rng, game.expand_to_tensor())
                oracle = SymmetricOracle(game)
            joints = rng.integers(0, game.action_counts[0], size=(3, game.players))
            blocks = estimate_pairwise_matrices(oracle, joints)
        assert blocks.stack is not None
        n = game.players
        partners = [[j for j in range(n) if j != i] for i in range(n)]
        grads = blocks.payoff_gradient(x)
        for i in range(n):
            want = sum(blocks.matrix(i, j) @ x[j] for j in partners[i]) / (n - 1)
            assert np.array_equal(grads[i], want)
        policy, effect = rng.normal(size=(2, n, game.action_counts[0]))
        stacked = blocks.response_gradients(policy, effect)
        for i in range(n):
            want = -policy[i]
            for j in partners[i]:
                want = want + blocks.matrix(j, i).T @ effect[j]
            assert np.array_equal(stacked[i], want)
