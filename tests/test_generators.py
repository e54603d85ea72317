import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adinash.adi import adi_exact
from adinash.entropy import Entropy
from adinash.generators import (
    GO,
    STAY,
    BlottoSpec,
    ElFarolSpec,
    blotto_allocations,
    make_bernoulli_metagame,
    make_blotto,
    make_covariant_random,
    make_el_farol,
    make_modified_shapley,
    planted_winrates,
)
from adinash.normalform import StrategyProfile, SymmetricGame, enumerate_multisets


def blotto_table_per_own_action(spec):
    """The Blotto table by the rule applied to each own action on its own:
    opponents' maxima and ties recomputed in every call."""
    actions = blotto_allocations(spec.coins, spec.fields)
    m = actions.shape[0]
    opponents = np.array(list(enumerate_multisets(m, spec.players - 1)), dtype=np.int64)
    table = np.empty((m, opponents.shape[0]))
    for a in range(m):
        own_alloc = actions[np.full(opponents.shape[0], a)]
        opp_alloc = actions[opponents]
        opp_max = opp_alloc.max(axis=1)
        ties = (opp_alloc == opp_max[:, None, :]).sum(axis=1)
        share = np.where(
            own_alloc > opp_max,
            1.0,
            np.where(own_alloc == opp_max, 1.0 / (1.0 + ties), 0.0),
        )
        table[a] = (2.0 * share - 1.0).mean(axis=1)
    return table


class TestBlotto:
    @pytest.mark.parametrize(
        "coins,fields,expected",
        [(10, 3, 66), (10, 4, 286), (1, 2, 2), (5, 3, 21)],
    )
    def test_action_counts(self, coins, fields, expected):
        assert BlottoSpec(coins, fields, 3).action_count == expected
        assert blotto_allocations(coins, fields).shape[0] == expected

    def test_allocations_sum_to_coins(self):
        alloc = blotto_allocations(7, 3)
        assert np.all(alloc.sum(axis=1) == 7)
        assert np.all(alloc >= 0)

    @pytest.mark.parametrize("coins,fields", [(7, 3), (4, 2), (3, 4), (2, 1)])
    def test_allocations_are_every_split_in_lexicographic_order(self, coins, fields):
        # itertools.product enumerates in lexicographic order
        splits = [a for a in itertools.product(range(coins + 1), repeat=fields) if sum(a) == coins]
        alloc = blotto_allocations(coins, fields)
        assert alloc.dtype == np.int64
        assert np.array_equal(alloc, np.array(splits))

    def test_two_player_zero_sum(self):
        game = make_blotto(BlottoSpec(4, 2, 2)).expand_to_tensor()
        assert np.allclose(game.payoffs[0] + game.payoffs[1], 0.0, atol=1e-12)

    def test_symmetric_pure_win(self):
        game = make_blotto(BlottoSpec(2, 2, 2))
        alloc = blotto_allocations(2, 2)
        # (2,0) vs (0,2): one field won, one lost -> net 0 each
        i20 = int(np.flatnonzero((alloc == [2, 0]).all(axis=1))[0])
        i02 = int(np.flatnonzero((alloc == [0, 2]).all(axis=1))[0])
        assert game.payoff(i20, (i02,)) == pytest.approx(0.0)
        # (1,1) vs (2,0): loses field 1, wins field 2 -> 0
        i11 = int(np.flatnonzero((alloc == [1, 1]).all(axis=1))[0])
        assert game.payoff(i11, (i20,)) == pytest.approx(0.0)

    def test_tie_splits_keep_scores_in_range(self):
        game = make_blotto(BlottoSpec(3, 3, 3))
        assert game.table.min() >= -1.0
        assert game.table.max() <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 4), st.integers(2, 4))
    # past 127 players an outcome code no longer fits an int8
    @example(1, 2, 127)
    @example(1, 2, 128)
    @example(1, 2, 130)
    def test_table_equals_the_per_own_action_rule(self, coins, fields, players):
        # opponent statistics are computed once per build, byte for byte;
        # players = 2 has one opponent per row
        spec = BlottoSpec(coins, fields, players)
        assert make_blotto(spec).table.tobytes() == blotto_table_per_own_action(spec).tobytes()

    def test_opponent_statistics_follow_the_array_passed(self):
        # a batch function kept past its build still answers for new opponents
        spec = BlottoSpec(3, 3, 3)
        calls = []
        with mock.patch.object(
            SymmetricGame,
            "from_batch_function",
            side_effect=lambda n, m, fn: calls.append(fn) or None,
        ):
            make_blotto(spec)
        (batch_payoff,) = calls
        expected = blotto_table_per_own_action(spec)
        opponents = np.array(list(enumerate_multisets(10, 2)), dtype=np.int64)
        for a in (0, 4, 9):
            assert batch_payoff(a, opponents).tobytes() == expected[a].tobytes()
            # a different array with equal rows, then a reordered one
            assert batch_payoff(a, opponents.copy()).tobytes() == expected[a].tobytes()
            flipped = opponents[::-1].copy()
            assert batch_payoff(a, flipped).tobytes() == expected[a][::-1].tobytes()

    def test_field_scores_add_in_field_order(self):
        # from 8 fields numpy's mean adds pairwise, so the rule is stated
        # here as a plain sum in field order, then divided by the fields
        spec = BlottoSpec(2, 9, 3)
        actions = blotto_allocations(spec.coins, spec.fields)
        opponents = np.array(list(enumerate_multisets(len(actions), 2)), dtype=np.int64)
        opp_alloc = actions[opponents]
        opp_max = opp_alloc.max(axis=1)
        ties = (opp_alloc == opp_max[:, None, :]).sum(axis=1)
        table = make_blotto(spec).table
        for a in (0, 17, len(actions) - 1):
            share = np.where(
                actions[a] > opp_max, 1.0, np.where(actions[a] == opp_max, 1.0 / (1.0 + ties), 0.0)
            )
            scores = 2.0 * share - 1.0
            total = scores[:, 0].copy()
            for f in range(1, spec.fields):
                total += scores[:, f]
            assert (total / spec.fields).tobytes() == table[a].tobytes()
        assert np.allclose(table, blotto_table_per_own_action(spec), rtol=0.0, atol=1e-15)

    def test_size_budget(self):
        with pytest.raises(ValueError):
            make_blotto(BlottoSpec(10, 3, 4)).expand_to_tensor()

    def test_table_budget_counts_the_stored_table(self):
        # 221 allocations x C(223, 3) opponent multisets = 402,987,091 entries,
        # just over the 400,000,000 budget; rejected before anything is built
        # (a build would need 3 GB, so a broken check fails here instead)
        spec = BlottoSpec(coins=220, fields=2, players=4)
        never = AssertionError("table built despite the budget")
        with mock.patch.object(SymmetricGame, "from_batch_function", side_effect=never):
            with pytest.raises(ValueError, match=r"BlottoSpec\(coins=220.*402987091"):
                make_blotto(spec)


class TestElFarol:
    def test_everyone_stays(self):
        game = make_el_farol()
        assert game.payoff(STAY, (STAY,) * 9) == 1.0

    def test_lone_goer_enjoys_the_bar(self):
        game = make_el_farol()
        assert game.payoff(GO, (STAY,) * 9) == 2.0

    def test_crowded_bar(self):
        game = make_el_farol()
        assert game.payoff(GO, (GO,) * 9) == 0.0

    def test_capacity_boundary(self):
        game = make_el_farol()
        # 7 goers total meets capacity exactly; be the 7th
        assert game.payoff(GO, (GO,) * 6 + (STAY,) * 3) == 2.0
        assert game.payoff(GO, (GO,) * 7 + (STAY,) * 2) == 0.0

    def test_payoff_depends_only_on_attendance(self):
        game = make_el_farol()
        for goers in range(10):
            opponents = [GO] * goers + [STAY] * (9 - goers)
            base = game.payoff(GO, opponents)
            for perm in (tuple(reversed(opponents)), tuple(sorted(opponents))):
                assert game.payoff(GO, perm) == base

    @pytest.mark.parametrize(
        "params,match",
        # stay must sit between bad and good
        [({"stay_payoff": 3.0}, "bad < stay < good")]
        + [({"players": players}, "players") for players in (0, 1, -2, 2.5, True)],
    )
    def test_parameter_validation(self, params, match):
        with pytest.raises(ValueError, match=match):
            ElFarolSpec(**params)


class TestModifiedShapley:
    def test_table_entries(self):
        game = make_modified_shapley(0.5)
        a = game.player_tensor(0)
        b = game.player_tensor(1)
        assert a[0].tolist() == [1.0, 0.0, 0.5]
        assert a[1].tolist() == [0.5, 1.0, 0.0]
        assert b[0].tolist() == [-0.5, 1.0, 0.0]
        assert game.payoff(0, (0, 2)) == 0.5

    def test_uniform_is_nash(self):
        game = make_modified_shapley(0.5)
        report = adi_exact(game, StrategyProfile.uniform([3, 3]), Entropy.none())
        assert report.total == pytest.approx(0.0, abs=1e-12)

    def test_offset_variant_nonnegative(self):
        game = make_modified_shapley(0.5, offset=True)
        assert game.payoffs.min() == 0.0

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            make_modified_shapley(1.0)


class TestCovariantRandom:
    def test_perfect_correlation(self):
        game = make_covariant_random(3, 2, 1.0, seed=5)
        assert np.allclose(game.payoffs[0], game.payoffs[1], atol=1e-12)
        assert np.allclose(game.payoffs[0], game.payoffs[2], atol=1e-12)

    def test_zero_correlation_empirical(self):
        game = make_covariant_random(2, 100, 0.0, seed=6)
        a = game.payoffs[0].ravel()
        b = game.payoffs[1].ravel()
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) <= 0.05

    def test_seed_determinism(self):
        g1 = make_covariant_random(3, 3, -0.3, seed=9)
        g2 = make_covariant_random(3, 3, -0.3, seed=9)
        assert np.array_equal(g1.payoffs, g2.payoffs)
        g3 = make_covariant_random(3, 3, -0.3, seed=10)
        assert not np.array_equal(g1.payoffs, g3.payoffs)

    def test_correlation_bounds(self):
        with pytest.raises(ValueError):
            make_covariant_random(3, 2, -0.6, seed=0)  # below -1/(n-1)

    def test_standardized_marginals(self):
        game = make_covariant_random(2, 80, 0.5, seed=11)
        values = game.payoffs.reshape(2, -1)
        assert abs(values.mean()) <= 0.05
        assert abs(values.std() - 1.0) <= 0.05


class TestBernoulliMetagame:
    def test_oracle_type_and_flags(self):
        oracle = make_bernoulli_metagame(planted_winrates(4, 3, seed=1), seed=2)
        assert oracle.deterministic is False
        assert oracle.players == 4

    def test_mean_tracks_winrate(self):
        table = planted_winrates(3, 2, seed=3)
        oracle = make_bernoulli_metagame(table, seed=4)
        joint = (0, 1, 1)
        p = table.payoff(0, (1, 1))
        draws = 10_000
        mean = np.mean([oracle.query(0, joint) for _ in range(draws)])
        assert abs(mean - p) <= 0.02

    def test_planted_winrates_valid(self):
        table = planted_winrates(7, 5, seed=5)
        assert table.table.min() >= 0.0
        assert table.table.max() <= 1.0
        # 5 own actions x 210 multisets of the 6 opponents' actions
        assert table.entry_count == 1050
