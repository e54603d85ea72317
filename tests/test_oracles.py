import numpy as np
import pytest

from adinash.generators import make_el_farol, planted_winrates
from adinash.normalform import SymmetricGame
from adinash.oracles import BernoulliOracle, SymmetricOracle, TensorOracle, as_oracle

from conftest import random_game


class TestTensorOracle:
    def test_deterministic_repeat(self):
        rng = np.random.default_rng(0)
        g = random_game(rng, players=2)
        oracle = TensorOracle(g)
        a = oracle.query(0, (0, 1))
        b = oracle.query(0, (0, 1))
        assert a == b
        assert oracle.queries == 2

    def test_block_matches_scalar_queries(self):
        rng = np.random.default_rng(1)
        g = random_game(rng, players=3, max_actions=3)
        oracle = TensorOracle(g)
        base = (1, 0, 2)
        block = oracle.pair_payoffs(2, 0, base)
        for r in range(g.action_counts[2]):
            for c in range(g.action_counts[0]):
                assert block[r, c] == g.payoff(2, (c, base[1], r))


class TestSymmetricOracle:
    def test_block_transpose_is_partner_view(self):
        game = make_el_farol()
        oracle = SymmetricOracle(game)
        rest = [0, 1, 0, 1, 0, 1, 0, 1]
        own = oracle.symmetric_pair_payoffs(rest)
        # partner's payoff when focal plays r and partner plays c
        partner_direct = np.array(
            [
                [game.payoff(c, tuple(rest) + (r,)) for c in range(2)]
                for r in range(2)
            ]
        )
        assert np.allclose(own.T, partner_direct)

    def test_query_count(self):
        game = make_el_farol()
        oracle = SymmetricOracle(game)
        oracle.symmetric_pair_payoffs([0] * 8)
        assert oracle.queries == 4

    def test_batched_read_stacks_single_reads(self):
        game = make_el_farol()
        rests = np.random.default_rng(0).integers(0, 2, size=(7, 8))
        batched = SymmetricOracle(game)
        single = SymmetricOracle(game)
        blocks = batched.symmetric_pair_payoffs(rests)
        assert blocks.shape == (7, 2, 2)
        assert batched.queries == 7 * 4
        assert np.array_equal(
            blocks, np.stack([single.symmetric_pair_payoffs(rest) for rest in rests])
        )
        assert single.queries == batched.queries


class TestBernoulliOracle:
    def test_certain_entry_always_wins(self):
        table = planted_winrates(3, 2, seed=0)
        sure = SymmetricGame(3, 2, np.ones_like(table.table))
        oracle = BernoulliOracle(sure, seed=1)
        for _ in range(20):
            assert oracle.query(0, (0, 1, 1)) == 1.0

    def test_mean_matches_winrate(self):
        half = SymmetricGame(2, 2, np.full((2, 2), 0.5))
        oracle = BernoulliOracle(half, seed=2)
        draws = 10_000
        mean = np.mean([oracle.query(0, (0, 1)) for _ in range(draws)])
        assert abs(mean - 0.5) <= 0.02

    def test_rejects_out_of_range(self):
        bad = SymmetricGame(2, 2, np.full((2, 2), 1.5))
        with pytest.raises(ValueError):
            BernoulliOracle(bad, seed=0)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (1.5, "seed must be an integer, got 1.5"),
            (True, "seed must be an integer, got True"),
            ("3", "seed must be an integer, got '3'"),
            (-1, r"seed must be in \[0, \d+\), got -1"),
            (2**128, r"seed must be in \[0, \d+\), got \d+"),
        ],
        ids=["float", "bool", "str", "negative", "past-philox-key"],
    )
    def test_rejects_a_bad_seed_when_built(self, seed, message):
        with pytest.raises(ValueError, match=message):
            BernoulliOracle(planted_winrates(3, 2, seed=0), seed=seed)

    def test_accepts_every_philox_key(self):
        for seed in (0, np.int64(7), 2**128 - 1):
            oracle = BernoulliOracle(planted_winrates(3, 2, seed=0), seed=seed)
            oracle.symmetric_pair_payoffs([1])
            assert oracle.seed == seed and type(oracle.seed) is int

    def test_not_deterministic_flag(self):
        oracle = BernoulliOracle(planted_winrates(3, 2, seed=0), seed=0)
        assert oracle.deterministic is False
        assert oracle.is_symmetric()

    def test_draws_keyed_by_query_index(self):
        # two oracles with the same seed agree draw-for-draw
        table = planted_winrates(3, 3, seed=3)
        a = BernoulliOracle(table, seed=9)
        b = BernoulliOracle(table, seed=9)
        seq_a = [a.query(0, (0, 1, 2)) for _ in range(50)]
        seq_b = [b.query(0, (0, 1, 2)) for _ in range(50)]
        assert seq_a == seq_b
        # block draws consume the same counter stream deterministically
        assert np.array_equal(
            a.symmetric_pair_payoffs([1]), b.symmetric_pair_payoffs([1])
        )

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_batched_draws_match_block_reads(self, repeats):
        # a batch of rests read `repeats` times each, sample by sample, draws
        # what the same blocks read one at a time draw on a fresh oracle
        table = planted_winrates(4, 3, seed=4)
        rests = np.random.default_rng(1).integers(0, 3, size=(6, 2))
        batched = BernoulliOracle(table, seed=11)
        single = BernoulliOracle(table, seed=11)
        draws = batched.symmetric_pair_payoffs(np.repeat(rests, repeats, axis=0))
        one_by_one = np.stack(
            [single.symmetric_pair_payoffs(rest) for rest in rests for _ in range(repeats)]
        )
        assert draws.shape == (6 * repeats, 3, 3)
        assert np.array_equal(draws, one_by_one)
        assert batched.queries == single.queries == 6 * repeats * 9
        # and both oracles go on to draw the same stream
        assert np.array_equal(
            batched.symmetric_pair_payoffs(rests), single.symmetric_pair_payoffs(rests)
        )

    def test_every_block_is_a_fresh_philox_read(self):
        # queries, block stacks and a second oracle with another seed,
        # interleaved: each block draws what a Philox built at the block's
        # start draws, so no generator state leaks across calls or oracles
        table = planted_winrates(4, 3, seed=5)
        oracles = {9: BernoulliOracle(table, seed=9), 21: BernoulliOracle(table, seed=21)}
        rng = np.random.default_rng(2)

        for step in range(30):
            seed = (9, 21)[step % 2]
            oracle = oracles[seed]
            start = oracle.queries
            if step % 3 == 0:
                joint = tuple(int(a) for a in rng.integers(0, 3, size=4))
                sample = oracle.query(1, joint)
                p = table.payoff(joint[1], joint[:1] + joint[2:])
                assert sample == _fresh_draws(seed, start, np.array([p]))[0]
                assert oracle.queries == start + 1
            else:
                rests = rng.integers(0, 3, size=(int(rng.integers(1, 5)), 2))
                blocks = oracle.symmetric_pair_payoffs(rests)
                probs = table.pair_block_at(rests)
                for b in range(rests.shape[0]):
                    expected = _fresh_draws(seed, start + 9 * b, probs[b])
                    assert blocks[b].tobytes() == expected.tobytes()
                assert oracle.queries == start + 9 * rests.shape[0]

    @pytest.mark.parametrize("m", [2, 5, 21])
    def test_one_stream_read_matches_fresh_philox_per_block(self, m):
        # m^2 = 4, 25 and 441: a whole number of Philox groups once, and
        # twice a block that ends inside a group; a query first moves the
        # read's start off a multiple of 4
        table = planted_winrates(3, m, seed=6)
        oracle = BernoulliOracle(table, seed=13)
        oracle.query(0, (0, 0, 0))
        rests = np.random.default_rng(3).integers(0, m, size=(12, 1))
        _assert_fresh_blocks(oracle, table, rests)

    def test_one_stream_read_at_the_benchmark_shape(self):
        # 50 rests of planted 7x5 per read, as the benchmark's sampled step
        # reads them, over three reads
        table = planted_winrates(7, 5, seed=0)
        oracle = BernoulliOracle(table, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(3):
            _assert_fresh_blocks(oracle, table, rng.integers(0, 5, size=(50, 5)))
        assert oracle.queries == 3 * 50 * 25

    def test_consecutive_reads_from_starts_off_a_multiple_of_four(self):
        # 9-entry blocks in stacks of 1-5: the starts run 0, 9, 27, 54, ...
        table = planted_winrates(4, 3, seed=7)
        oracle = BernoulliOracle(table, seed=17)
        rng = np.random.default_rng(5)
        starts = []
        for stack in range(10):
            starts.append(oracle.queries)
            _assert_fresh_blocks(oracle, table, rng.integers(0, 3, size=(1 + stack % 5, 2)))
        assert any(start % 4 for start in starts)

    def test_uniforms_are_generator_random_bit_for_bit(self):
        # two players: the block is the winrate table itself, so a table set
        # to the expected uniforms never wins and one a bit above always does
        u = _fresh_uniforms(23, 1, (5, 5))
        for winrates, won in ((u, 0.0), (np.nextafter(u, 1.0), 1.0)):
            oracle = BernoulliOracle(SymmetricGame(2, 5, winrates), seed=23)
            oracle.query(0, (0, 0))
            assert np.all(oracle.symmetric_pair_payoffs([]) == won)

    def test_scalar_query_is_the_first_draw_of_a_fresh_philox(self):
        table = planted_winrates(4, 3, seed=8)
        oracle = BernoulliOracle(table, seed=19)
        rng = np.random.default_rng(6)
        for step in range(40):
            if step % 4 == 3:
                oracle.symmetric_pair_payoffs(rng.integers(0, 3, size=(1 + step % 3, 2)))
            joint = tuple(int(a) for a in rng.integers(0, 3, size=4))
            start = oracle.queries
            p = table.payoff(joint[2], joint[:2] + joint[3:])
            assert oracle.query(2, joint) == _fresh_draws(19, start, np.array([p]))[0]


def _fresh_uniforms(seed, start, shape):
    return np.random.Generator(np.random.Philox(key=seed, counter=start)).random(shape)


def _fresh_draws(seed, start, probs):
    """The Bernoulli draws of a Generator over ``Philox(key=seed, counter=start)``."""
    return (_fresh_uniforms(seed, start, probs.shape) < probs).astype(float)


def _assert_fresh_blocks(oracle, table, rests):
    """Read the stack of `rests` and check each block against a fresh Philox
    at the query count where the block starts."""
    start = oracle.queries
    blocks = oracle.symmetric_pair_payoffs(rests)
    probs = table.pair_block_at(rests)
    size = probs[0].size
    for b in range(len(rests)):
        assert blocks[b].tobytes() == _fresh_draws(oracle.seed, start + b * size, probs[b]).tobytes()
    assert oracle.queries == start + size * len(rests)


def test_as_oracle_dispatch(biased_game):
    assert isinstance(as_oracle(biased_game), TensorOracle)
    assert isinstance(as_oracle(make_el_farol()), SymmetricOracle)
    with pytest.raises(TypeError):
        as_oracle([[1, 2], [3, 4]])
