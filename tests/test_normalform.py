import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from adinash import normalform
from adinash.exact import expected_utility, pairwise_jacobian_exact, payoff_gradient
from adinash.normalform import (
    GameTensor,
    StrategyProfile,
    SymmetricGame,
    as_profile,
    enumerate_multisets,
    multiset_count,
    multiset_rank,
    multiset_rank_array,
    validate_integer,
    validate_joint_action,
)
from adinash.generators import (
    BlottoSpec,
    ElFarolSpec,
    make_blotto,
    make_el_farol,
    make_modified_shapley,
)
from adinash.solvers import SymmetricAdidasSolver
from adinash.oracles import TensorOracle
from conftest import symmetric_games


class TestMultisetCounting:
    @pytest.mark.parametrize(
        "actions,players,expected",
        [
            (5, 7, 330),
            (21, 7, 888030),
            (1, 4, 1),
            (1, 11, 1),
            (2, 2, 3),
            (66, 4, 864501),
        ],
    )
    def test_counts(self, actions, players, expected):
        assert multiset_count(actions, players) == expected

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            multiset_count(0, 3)
        with pytest.raises(ValueError):
            multiset_count(3, 0)

    def test_no_wraparound_at_scale(self):
        # would overflow int64 if computed with fixed-width arithmetic
        big = multiset_count(1000, 30)
        assert big > 2**63

    @pytest.mark.parametrize("actions,size", [(3, 4), (5, 3), (2, 10), (7, 2)])
    def test_rank_is_bijection(self, actions, size):
        ranks = [multiset_rank(ms, actions) for ms in enumerate_multisets(actions, size)]
        assert sorted(ranks) == list(range(multiset_count(actions, size)))

    def test_rank_array_matches_scalar(self):
        ms = list(enumerate_multisets(4, 3))
        scalar = [multiset_rank(m, 4) for m in ms]
        assert multiset_rank_array(np.array(ms), 4).tolist() == scalar

    @pytest.mark.parametrize(
        "actions,sizes", [(2, range(1, 151)), (3, (1, 2, 3, 32, 33, 65, 66, 67, 100, 150))]
    )
    def test_rank_array_matches_scalar_past_int64_binomials(self, actions, sizes):
        # from size 66 on, two-action ranks once filled comb(v, j) > 2^63
        for size in sizes:
            rows = normalform._multiset_rows(actions, size)
            scalar = [multiset_rank(row, actions) for row in rows.tolist()]
            ranks = multiset_rank_array(rows, actions)
            assert ranks.tolist() == scalar
            assert sorted(scalar) == list(range(multiset_count(actions, size)))

    @pytest.mark.parametrize(
        "bad", [[[0, 3]], [[0, 5]], [[-1, 0]], [[0, 1], [2, 3]], [[0, 2, 1]], [[0, 9, 1]]]
    )
    def test_rank_array_rejects_actions_out_of_range(self, bad):
        # [0, 3] read a wrong entry (rank 6) and [0, 5] raised IndexError; the
        # unsorted [0, 2, 1] ranked as another multiset and [0, 9, 1] raised IndexError
        unsorted = any(row != sorted(row) for row in bad)
        match = "sorted ascending" if unsorted else r"actions outside \[0, 3\)"
        with pytest.raises(ValueError, match=match):
            multiset_rank_array(bad, 3)

    def test_rank_array_builds_no_rows_sized_temporary(self):
        rows = np.sort(np.random.default_rng(0).integers(0, 5, size=(100_000, 6)), axis=1)
        tracemalloc.start()
        try:
            ranks = multiset_rank_array(rows, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # summed a column at a time: an (N, k) index or gather array alone is rows.nbytes
        assert peak < rows.nbytes
        assert ranks[:200].tolist() == [multiset_rank(row, 5) for row in rows[:200].tolist()]

    @pytest.mark.parametrize(
        "actions,size", [(1, 0), (4, 0), (1, 1), (1, 5), (3, 1), (4, 3), (2, 10), (66, 3)]
    )
    def test_rows_equal_the_listed_enumeration(self, actions, size):
        # the rows are built without a Python list; size 0 is one empty row
        rows = normalform._multiset_rows(actions, size)
        listed = np.array(list(enumerate_multisets(actions, size)), dtype=np.int64)
        assert rows.shape == listed.shape
        assert rows.dtype == listed.dtype and rows.flags.c_contiguous
        assert rows.tobytes() == listed.tobytes()


class TestStrategyProfile:
    def test_uniform(self):
        p = StrategyProfile.uniform([2, 3])
        assert np.allclose(p[0], [0.5, 0.5])
        assert np.allclose(p[1], [1 / 3] * 3)

    def test_one_hot(self):
        p = StrategyProfile.one_hot([1, 0], [3, 2])
        assert p[0].tolist() == [0.0, 1.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            StrategyProfile([[0.7, 0.7]])

    def test_shape_check(self):
        with pytest.raises(ValueError):
            as_profile(StrategyProfile.uniform([2, 2]), (2, 3))


class TestJointAction:
    def test_bounds(self):
        assert validate_joint_action((1, 0), (2, 3)) == (1, 0)
        with pytest.raises(ValueError):
            validate_joint_action((2, 0), (2, 3))
        with pytest.raises(ValueError):
            validate_joint_action((0,), (2, 3))

    def test_rejects_actions_that_int_would_change(self):
        # 0.9 used to be truncated to action 0
        with pytest.raises(ValueError, match="player 0 action 0.9"):
            TensorOracle(make_modified_shapley()).query(0, (0.9, 1))
        with pytest.raises(ValueError, match="player 1 action 1.5"):
            validate_joint_action([0, 1.5], (2, 3))

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), -np.inf, np.float64("nan")],
        ids=["nan", "inf", "-inf", "np-nan"],
    )
    def test_rejects_non_finite_actions_naming_the_player(self, bad):
        # NaN raised "cannot convert float NaN to integer" with no player, and
        # inf an OverflowError, which the CLI reports as a numeric failure
        with pytest.raises(ValueError, match="player 1 action"):
            validate_joint_action((0, bad), (3, 3))
        with pytest.raises(ValueError, match="player 0 action"):
            TensorOracle(make_modified_shapley()).pair_payoffs(0, 1, (bad, 1))

    def test_accepts_integral_values(self):
        joint = validate_joint_action((np.int64(1), 2.0), (2, 3))
        assert joint == (1, 2) and all(type(a) is int for a in joint)


class TestValidateInteger:
    def test_range(self):
        assert validate_integer("n", np.int32(3), 1) == 3
        assert validate_integer("owner", 2, 0, 3) == 2
        with pytest.raises(ValueError, match="owner must be in \\[0, 3\\), got 3"):
            validate_integer("owner", 3, 0, 3)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            validate_integer("n", 0, 1)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.bool_(True), "2", None])
    def test_rejects_non_integers_by_name(self, value):
        with pytest.raises(ValueError, match="samples must be an integer"):
            validate_integer("samples", value, 1)


class TestGameTensor:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GameTensor(np.zeros((3, 2, 2)))  # player axis says 3, only 2 action axes

    def test_rejects_nonfinite(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            GameTensor(t)

    def test_payoff_lookup(self, biased_game):
        assert biased_game.payoff(0, (1, 1)) == -2.0
        assert biased_game.payoff(1, (2, 0)) == 0.0

    def test_immutable(self, biased_game):
        with pytest.raises(ValueError):
            biased_game.payoffs[0, 0, 0] = 5.0


def _random_symmetric(rng, players, actions):
    def payoff(own, opponents):
        values = []
        for a, opp in zip(own.tolist(), opponents.tolist()):
            key = (a, *sorted(opp))
            values.append(np.random.default_rng(hash(key) % (2**32)).uniform(-1, 1))
        return np.array(values)

    return SymmetricGame.from_batch_function(players, actions, payoff)


class TestSymmetricGame:
    def test_entry_count_invariant(self):
        g = _random_symmetric(np.random.default_rng(0), 4, 3)
        # one entry per (own action, multiset of the 3 opponents' actions)
        assert g.entry_count == 3 * multiset_count(3, 3) == g.table.size
        assert g.table.shape == (3, multiset_count(3, 3))

    def test_constructor_rejects_wrong_shape_naming_the_expected_one(self):
        with pytest.raises(ValueError, match=r"\(3, 10\)"):
            SymmetricGame(4, 3, np.zeros((multiset_count(3, 4), 4)))
        with pytest.raises(ValueError, match=r"\(3, 10\)"):
            SymmetricGame(4, 3, np.zeros((10, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_non_finite(self, bad):
        table = np.zeros((3, multiset_count(3, 2)))
        table[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SymmetricGame(3, 3, table)

    def test_constructor_rejects_one_player(self):
        with pytest.raises(ValueError, match="two players"):
            SymmetricGame(1, 3, np.zeros((3, 1)))

    def test_table_is_a_read_only_copy(self):
        source = np.zeros((2, multiset_count(2, 2)))
        game = SymmetricGame(3, 2, source)
        source[0, 0] = 1.0
        assert game.table[0, 0] == 0.0
        with pytest.raises(ValueError):
            game.table[0, 0] = 1.0

    def test_lookup_permutation_invariant(self):
        g = _random_symmetric(np.random.default_rng(0), 3, 4)
        for opponents in itertools.product(range(4), repeat=2):
            assert g.payoff(2, opponents) == g.payoff(2, tuple(reversed(opponents)))

    def test_lookup_rejects_out_of_range_actions(self):
        g = _random_symmetric(np.random.default_rng(0), 3, 3)
        for own, opponents in [(-1, (0, 0)), (3, (0, 0)), (0, (1, 3))]:
            with pytest.raises(ValueError, match="outside"):
                g.payoff(own, opponents)

    def test_tensor_roundtrip_lossless(self):
        g = _random_symmetric(np.random.default_rng(1), 3, 3)
        dense = g.expand_to_tensor()
        back = SymmetricGame.from_tensor(dense)
        assert np.array_equal(g.table, back.table)

    def test_from_tensor_rejects_asymmetric(self, biased_game):
        # biased game has 3 vs 2 actions; build a square asymmetric game instead
        t = np.zeros((2, 2, 2))
        t[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            SymmetricGame.from_tensor(GameTensor(t))
        # tied players must agree too: u_0(0, 0) = 1 but u_1(0, 0) = 0
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            SymmetricGame.from_tensor(GameTensor(t))

    def test_expected_utilities_agree_with_dense(self):
        rng = np.random.default_rng(2)
        g = _random_symmetric(rng, 3, 3)
        dense = g.expand_to_tensor()
        for _ in range(10):
            x = rng.dirichlet(np.ones(3))
            profile = StrategyProfile([x] * 3)
            dev = g.deviation_payoffs(x)
            assert np.allclose(dev, payoff_gradient(dense, profile, 0), atol=1e-12)
            assert np.allclose(
                float(np.dot(x, dev)), expected_utility(dense, profile, 1), atol=1e-12
            )

    def test_pair_matrix_matches_dense(self):
        rng = np.random.default_rng(3)
        g = _random_symmetric(rng, 4, 3)
        dense = g.expand_to_tensor()
        x = rng.dirichlet(np.ones(3))
        profile = StrategyProfile([x] * 4)
        block = pairwise_jacobian_exact(dense, profile, 0, 1)
        assert np.allclose(g.pair_payoff_matrix(x), block, atol=1e-12)

    def test_batch_function_matches_scalar(self):
        def scalar(own, opponents):
            return float(own - 0.25 * sum(opponents))

        def batch(own, opponents):
            return own.astype(float) - 0.25 * opponents.sum(axis=1)

        b = SymmetricGame.from_batch_function(3, 4, batch)
        # row = own action, column = opponent multiset in lexicographic order
        want = [[scalar(a, opp) for opp in enumerate_multisets(4, 2)] for a in range(4)]
        assert np.allclose(b.table, want)

    def test_batch_function_rows_are_the_weight_rows(self):
        seen = []

        def batch(own, opponents):
            seen.append(opponents)
            return own + opponents.sum(axis=1)

        game = SymmetricGame.from_batch_function(4, 3, batch)
        # the opponent rows are enumerated once: the weights keep that array
        rows, _ = game._opponent_weights()
        assert all(rows is opponents for opponents in seen) and len(seen) == 3

    def test_mixed_opponent_deviation_payoffs(self):
        # heterogeneous (non-shared) opponent strategies, sparse support
        rng = np.random.default_rng(4)
        g = _random_symmetric(rng, 3, 3)
        dense = g.expand_to_tensor()
        profile = StrategyProfile(
            [np.array([0.5, 0.5, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.2, 0.3, 0.5])]
        )
        got = payoff_gradient(g, profile, 0)
        want = payoff_gradient(dense, profile, 0)
        assert np.allclose(got, want, atol=1e-12)


class TestSortedRowWeights:
    """A symmetric game's iid multiset weights come from the sorted multiset
    rows: (K', n - 1) actions and one log coefficient per row."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 6), st.data())
    def test_iid_weights_match_dense_counts(self, actions, size, data):
        # integer weights give exact zeros and keep every other entry >= 1/50,
        # so each log-weight is small enough for a 1e-14 relative match
        raw = data.draw(
            st.lists(st.integers(0, 10), min_size=actions, max_size=actions).filter(any)
        )
        x = np.array(raw, dtype=float) / sum(raw)
        rows = normalform._multiset_rows(actions, size)
        game = SymmetricGame(2, actions, np.zeros((actions, actions)))
        got = game._iid_weights(x, *SymmetricGame._multiset_weights(rows))
        # reference: the dense (K', m) action-count matrix
        counts = np.zeros((rows.shape[0], actions))
        for column in rows.T:
            counts[np.arange(rows.shape[0]), column] += 1.0
        log_coef = math.lgamma(size + 1) - gammaln(counts + 1.0).sum(axis=1)
        want = np.exp(log_coef + counts @ np.log(np.clip(x, 1e-300, None)))
        live = counts[:, x == 0].sum(axis=1) == 0
        np.testing.assert_allclose(got[live], want[live], rtol=1e-14, atol=0.0)
        # a multiset holding an action of probability 0 keeps only the clip floor
        assert np.all(got[~live] <= 1e-290)
        assert abs(got.sum() - 1.0) <= 1e-12

    def test_no_weight_array_is_m_wide(self):
        game = make_blotto(BlottoSpec(coins=6, fields=3, players=4))
        m = game.actions
        x = np.full(m, 1.0 / m)
        tracemalloc.start()
        try:
            game.deviation_payoffs(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (K', m) count matrix alone would be as large as the table
        assert peak < game.table.nbytes // 2
        game.pair_payoff_matrix(x)
        rows, log_coef = game._weights
        assert rows.shape == (multiset_count(m, 3), 3)
        assert log_coef.shape == (multiset_count(m, 3),)
        for weights in (*game._weights, *game._pair_cache[1:]):
            assert m not in weights.shape


def _scalar_lookup(game, own, opponents):
    column = list(enumerate_multisets(game.actions, game.players - 1))
    return game.table[own, column.index(tuple(sorted(opponents)))]


class TestPairTableLimit:
    """The cached (K, m, m) pair table is built only within PAIR_TABLE_ENTRIES;
    over it, exact pair blocks are refused and sampled reads gathered."""

    def test_exact_block_over_the_limit_is_refused(self):
        game = make_el_farol(ElFarolSpec(players=5))
        assert game.pair_table_entries == 4 * 4
        with mock.patch.object(normalform, "PAIR_TABLE_ENTRIES", 0):
            with pytest.raises(ValueError, match=r"16 entries, over PAIR_TABLE_ENTRIES = 0"):
                game.pair_payoff_matrix([0.5, 0.5])
            assert game._pair_cache is None
            blocks = game.pair_block_at([[0, 1, 1], [1, 1, 1]])
            assert blocks.shape == (2, 2, 2)
            assert game._pair_cache is None
            solver = SymmetricAdidasSolver(exact_gradients=True, iterations=3)
            with pytest.raises(ValueError, match="exact_gradients.*PAIR_TABLE_ENTRIES = 0"):
                solver.fit(game)
            assert game._pair_cache is None
        # within the limit the same block is served from the cached table
        assert game.pair_payoff_matrix([0.5, 0.5]).shape == (2, 2)
        assert game._pair_cache is not None


class TestMultisetLookupProperties:
    @settings(max_examples=50, deadline=None)
    @given(symmetric_games())
    def test_lookup_matches_scalar_reference(self, game):
        joints = np.array(list(itertools.product(range(game.actions), repeat=game.players)))
        want = [_scalar_lookup(game, int(j[0]), j[1:].tolist()) for j in joints]
        assert np.array_equal(game.lookup(joints[:, 0], joints[:, 1:]), want)
        # every player's slice of the dense tensor, not only player 0's
        dense = game.expand_to_tensor().payoffs
        for i in range(game.players):
            others = np.delete(joints, i, axis=1)
            want = [_scalar_lookup(game, int(j[i]), o.tolist()) for j, o in zip(joints, others)]
            assert np.array_equal(dense[(i, *joints.T)], want)

    @settings(max_examples=50, deadline=None)
    @given(symmetric_games())
    def test_tensor_roundtrip_lossless(self, game):
        dense = game.expand_to_tensor()
        back = SymmetricGame.from_tensor(dense)
        assert np.array_equal(back.expand_to_tensor().payoffs, dense.payoffs)
        # the compressed table of a tensor is a fixed point of the round trip
        assert np.array_equal(SymmetricGame.from_tensor(back.expand_to_tensor()).table, back.table)

    @settings(max_examples=50, deadline=None)
    @given(symmetric_games())
    def test_cached_pair_block_equals_fallback(self, game):
        dense = game.expand_to_tensor().payoffs
        rests = list(itertools.product(range(game.actions), repeat=game.players - 2))
        with mock.patch.object(normalform, "PAIR_TABLE_ENTRIES", 0):
            fallback = [game.pair_block_at(rest) for rest in rests]
        assert game._pair_cache is None
        cached = [game.pair_block_at(rest) for rest in rests]
        for rest, read, served in zip(rests, fallback, cached):
            want = dense[(0, slice(None), slice(None), *rest)]
            assert np.array_equal(read, want)
            assert np.array_equal(served, want)

    @settings(max_examples=50, deadline=None)
    @given(symmetric_games(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_batched_pair_blocks_stack_single_reads(self, game, count, seed):
        rng = np.random.default_rng(seed)
        # unsorted rests: a read sorts each one into its multiset
        rests = rng.integers(0, game.actions, size=(count, game.players - 2))
        with mock.patch.object(normalform, "PAIR_TABLE_ENTRIES", 0):
            fallback = game.pair_block_at(rests)
        assert game._pair_cache is None
        cached = game.pair_block_at(rests)
        singles = np.stack([game.pair_block_at(rest) for rest in rests])
        assert cached.shape == (count, game.actions, game.actions)
        assert np.array_equal(cached, singles)
        assert np.array_equal(fallback, singles)

    @settings(max_examples=50, deadline=None)
    @given(symmetric_games(), st.integers(0, 2**32 - 1))
    def test_pair_matrix_matches_dense_block(self, game, seed):
        x = np.random.default_rng(seed).dirichlet(np.ones(game.actions))
        profile = StrategyProfile([x] * game.players)
        block = pairwise_jacobian_exact(game.expand_to_tensor(), profile, 0, 1)
        assert np.allclose(game.pair_payoff_matrix(x), block, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "players,actions,rests",
        [
            (4, 3, np.empty((0, 2), dtype=np.int64)),
            (2, 3, np.empty((0, 0), dtype=np.int64)),
            (2, 3, np.empty((3, 0), dtype=np.int64)),
            (2, 3, np.empty(0, dtype=np.int64)),
            (4, 1, np.zeros((2, 2), dtype=np.int64)),
            (3, 1, np.zeros(1, dtype=np.int64)),
        ],
        ids=["empty-batch", "two-players-empty-batch", "two-players", "two-players-single",
             "one-action", "one-action-single"],
    )
    def test_edge_reads_agree_on_both_sides_of_the_threshold(self, players, actions, rests):
        game = _random_symmetric(np.random.default_rng(7), players, actions)
        with mock.patch.object(normalform, "PAIR_TABLE_ENTRIES", 0):
            gathered = game.pair_block_at(rests)
        assert game._pair_cache is None
        cached = game.pair_block_at(rests)
        dense = game.expand_to_tensor().payoffs
        want = np.array(
            [dense[(0, slice(None), slice(None), *rest)] for rest in np.atleast_2d(rests)]
        ).reshape(-1, actions, actions)
        if rests.ndim == 1:
            want = want[0]
        assert gathered.shape == cached.shape == want.shape
        assert np.array_equal(gathered, want)
        assert np.array_equal(cached, want)

    def test_pair_table_is_one_contiguous_block_per_rest(self):
        game = _random_symmetric(np.random.default_rng(5), 4, 3)
        dense = game.expand_to_tensor().payoffs
        table = game._pair_table()[0]
        assert table.shape == (multiset_count(3, 2), 3, 3)
        assert table.flags.c_contiguous
        # row k holds the rest multiset of colex rank k
        for rest in enumerate_multisets(3, 2):
            assert np.array_equal(table[multiset_rank(rest, 3)], dense[(0, ..., *rest)])

    def test_pair_block_rejects_bad_rests(self):
        game = _random_symmetric(np.random.default_rng(6), 4, 3)
        for bad in ([0, 3], [-1, 0], [0, 1, 2]):
            with pytest.raises(ValueError):
                game.pair_block_at(bad)

    def test_pair_block_rejects_non_integral_rests(self):
        # a float rest was truncated: [0.7, 1.2] read the [0, 1] block
        from adinash.oracles import SymmetricOracle

        game = _random_symmetric(np.random.default_rng(6), 4, 3)
        bads = ([0.7, 1.2], [[0.0, 1.5]], [np.nan, 0.0], [np.inf, 0.0], [0.0, 1e30], ["0", "1"])
        for bad in bads:
            with pytest.raises(ValueError, match="rest_actions"):
                game.pair_block_at(bad)
        assert np.array_equal(game.pair_block_at([1.0, 0.0]), game.pair_block_at([0, 1]))
        oracle = SymmetricOracle(game)
        with pytest.raises(ValueError, match="rest_actions"):
            oracle.symmetric_pair_payoffs([[0.9, 1.9]])
        assert oracle.queries == 0

    @given(st.integers(1, 6), st.integers(1, 5))
    def test_multiset_rank_is_bijection(self, actions, size):
        ranks = [multiset_rank(ms, actions) for ms in enumerate_multisets(actions, size)]
        assert sorted(ranks) == list(range(multiset_count(actions, size)))
