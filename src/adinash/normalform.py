"""Normal-form game representations.

Three views of the same object: a dense payoff tensor, a symmetric game
stored as its deviation table (own action x opponent multiset), and (in
:mod:`adinash.oracles`) query-by-joint-action access.
"""

import functools
import itertools
import math

import numpy as np

from .simplex import as_distribution

DESK_SCALE_ENTRIES = 10_000_000
# symmetric pair tables above this many entries are not cached; each block is
# then read from the payoff table directly
PAIR_TABLE_ENTRIES = 20_000_000


def multiset_count(actions, players):
    """Number of multisets of cardinality ``players`` over ``actions`` symbols.

    Equals (m+n-1)! / (n! (m-1)!). Exact integer arithmetic, no wraparound.
    """
    if actions < 1 or players < 1:
        raise ValueError("need at least one action and one player")
    return math.comb(actions + players - 1, players)


def multiset_rank(multiset, actions):
    """Colex rank of an ascending-sorted multiset among all of its size.

    Maps the multiset (a_1 <= ... <= a_k) to the strictly increasing
    combination (a_i + i) and ranks via the combinatorial number system.
    """
    rank = 0
    for i, a in enumerate(multiset):
        rank += math.comb(a + i, i + 1)
    return rank


@functools.cache
def _comb_table(actions, k):
    table = np.zeros((actions + k, k + 1), dtype=np.int64)
    for v in range(actions + k):
        for j in range(1, k + 1):
            table[v, j] = math.comb(v, j)
    return table


def multiset_rank_array(multisets, actions):
    """Vectorized multiset_rank over an (N, k) array of sorted rows."""
    ms = np.asarray(multisets, dtype=np.int64)
    if ms.ndim == 1:
        ms = ms[None, :]
    k = ms.shape[1]
    table = _comb_table(actions, k)
    idx = ms + np.arange(k, dtype=np.int64)
    return table[idx, np.arange(1, k + 1)].sum(axis=1)


def enumerate_multisets(actions, size):
    """Ascending-sorted multisets of the given size, in lexicographic order."""
    return itertools.combinations_with_replacement(range(actions), size)


def _multiset_rows(actions, size):
    """enumerate_multisets as an (entries, size) int array."""
    return np.array(list(enumerate_multisets(actions, size)), dtype=np.int64)


def validate_integer(name, value, low, high=None):
    """`value` as an int in [low, high), unbounded above when `high` is None;
    bools, non-integers and values out of range raise ValueError naming the
    parameter."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value >= high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be {bounds}, got {value}")
    return int(value)


def validate_joint_action(joint, action_counts):
    """The joint action as a tuple of ints; an action that int() would change
    or that lies outside its player's range raises ValueError naming the
    player."""
    joint = tuple(joint)
    a = tuple(int(v) for v in joint)
    if len(a) != len(action_counts):
        raise ValueError(f"joint action length {len(a)} != players {len(action_counts)}")
    for i, (v, ai, mi) in enumerate(zip(joint, a, action_counts)):
        if ai != v:
            raise ValueError(f"player {i} action {v!r} is not an integer")
        if not 0 <= ai < mi:
            raise ValueError(f"player {i} action {ai} outside [0, {mi})")
    return a


class StrategyProfile:
    """One mixed strategy per player, each validated onto its simplex."""

    def __init__(self, strategies):
        self.strategies = tuple(as_distribution(s) for s in strategies)

    @classmethod
    def uniform(cls, action_counts):
        return cls([np.full(m, 1.0 / m) for m in action_counts])

    @classmethod
    def one_hot(cls, actions, action_counts):
        strategies = []
        for a, m in zip(actions, action_counts):
            v = np.zeros(m)
            v[a] = 1.0
            strategies.append(v)
        return cls(strategies)

    @property
    def players(self):
        return len(self.strategies)

    @property
    def action_counts(self):
        return tuple(s.size for s in self.strategies)

    def __len__(self):
        return len(self.strategies)

    def __getitem__(self, i):
        return self.strategies[i]

    def __iter__(self):
        return iter(self.strategies)

    def __repr__(self):
        return f"StrategyProfile({[np.round(s, 4).tolist() for s in self.strategies]})"


def as_profile(x, action_counts=None):
    """Coerce a StrategyProfile or sequence of per-player vectors."""
    profile = x if isinstance(x, StrategyProfile) else StrategyProfile(x)
    if action_counts is not None and profile.action_counts != tuple(action_counts):
        raise ValueError(
            f"profile shapes {profile.action_counts} do not match game {tuple(action_counts)}"
        )
    return profile


class GameTensor:
    """Dense n-player payoff tensor: payoffs[i, a_1, ..., a_n] = u_i(a)."""

    def __init__(self, payoffs):
        arr = np.asarray(payoffs, dtype=float)
        if arr.ndim < 2:
            raise ValueError("payoff tensor needs a player axis plus one axis per player")
        if arr.shape[0] != arr.ndim - 1:
            raise ValueError(
                f"player axis {arr.shape[0]} inconsistent with {arr.ndim - 1} action axes"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("payoff tensor has non-finite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        self.payoffs = arr
        self.players = arr.shape[0]
        self.action_counts = tuple(arr.shape[1:])

    @classmethod
    def from_player_tensors(cls, tensors):
        return cls(np.stack([np.asarray(t, dtype=float) for t in tensors], axis=0))

    def player_tensor(self, i):
        return self.payoffs[i]

    def payoff(self, i, joint):
        joint = validate_joint_action(joint, self.action_counts)
        return float(self.payoffs[(i, *joint)])

    @property
    def entry_count(self):
        return self.payoffs.size

    def is_desk_scale(self):
        return self.entry_count <= DESK_SCALE_ENTRIES

    def offset(self, constant):
        """New game with `constant` added to every payoff of every player."""
        return GameTensor(self.payoffs + float(constant))

    def __eq__(self, other):
        return (
            isinstance(other, GameTensor)
            and self.action_counts == other.action_counts
            and np.array_equal(self.payoffs, other.payoffs)
        )

    def __repr__(self):
        return f"GameTensor(players={self.players}, actions={self.action_counts})"


class SymmetricGame:
    """Permutation-invariant game stored as its deviation table.

    ``table[a, j]`` is the payoff u(a; O_j) of playing own action ``a``
    against opponent multiset O_j: shape (m, C(m+n-2, n-1)), one row per own
    action, one column per multiset of the n - 1 opponents' actions, columns
    in the lexicographic order of ``enumerate_multisets(m, n - 1)``. This is
    the only payoff storage; tied players cannot disagree. ``from_batch_function``
    is the one function constructor (there is no scalar ``from_function``);
    ``from_tensor`` compresses a dense tensor.
    """

    def __init__(self, players, actions, table):
        self.players = int(players)
        self.actions = int(actions)
        if self.players < 2:
            raise ValueError(f"symmetric game needs at least two players, got {self.players}")
        table = np.array(table, dtype=float, order="C")
        expected = (self.actions, multiset_count(self.actions, self.players - 1))
        if table.shape != expected:
            raise ValueError(
                f"table shape {table.shape} != {expected}: one row per own action, one "
                f"column per multiset of {self.players - 1} opponent actions over "
                f"{self.actions} actions"
            )
        if not np.all(np.isfinite(table)):
            raise ValueError("payoff table has non-finite entries")
        table.flags.writeable = False
        self.table = table
        self._column = None
        self._weights = None
        self._pair_cache = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_batch_function(cls, players, actions, batch_fn):
        """Build from a vectorized ``batch_fn(own (K',), opponents (K', n-1)) -> (K',)``,
        called once per own action over every opponent multiset (rows sorted
        ascending, in table column order)."""
        opponents = _multiset_rows(actions, players - 1)
        table = np.empty((actions, opponents.shape[0]))
        for a in range(actions):
            table[a] = batch_fn(np.full(opponents.shape[0], a), opponents)
        return cls(players, actions, table)

    @classmethod
    def from_tensor(cls, game, tol=1e-12):
        """Compress a dense tensor, verifying permutation invariance: the
        expansion of the compressed game must reproduce every entry."""
        n = game.players
        if len(set(game.action_counts)) != 1:
            raise ValueError("symmetric game needs identical action counts")
        m = game.action_counts[0]
        opponents = _multiset_rows(m, n - 1)
        # player 0 plays the own action, players 1.. the sorted opponent multiset
        table = game.payoffs[0][(np.arange(m)[:, None], *opponents.T[:, None, :])]
        symmetric = cls(n, m, table)
        mismatch = np.abs(symmetric.expand_to_tensor().payoffs - game.payoffs) > tol
        if mismatch.any():
            player, *joint = np.argwhere(mismatch)[0].tolist()
            raise ValueError(
                f"tensor is not permutation-invariant: player {player} at joint {tuple(joint)}"
            )
        return symmetric

    # -- lookups -----------------------------------------------------------

    def _columns(self):
        """Table column of each opponent multiset, indexed by colex rank; cached."""
        if self._column is None:
            opponents = _multiset_rows(self.actions, self.players - 1)
            column = np.empty(opponents.shape[0], dtype=np.int64)
            column[multiset_rank_array(opponents, self.actions)] = np.arange(opponents.shape[0])
            self._column = column
        return self._column

    def lookup(self, own, opponents):
        """Payoffs of own actions (N,) against opponent actions (N, n-1):
        ``table[own, column of the sorted opponents]``."""
        own = np.asarray(own, dtype=np.int64)
        opponents = np.sort(opponents, axis=1)
        m = self.actions
        if np.any((own < 0) | (own >= m)) or np.any((opponents < 0) | (opponents >= m)):
            raise ValueError(f"actions outside [0, {m})")
        return self.table[own, self._columns()[multiset_rank_array(opponents, m)]]

    def payoff(self, own_action, opponents):
        """Payoff to a player choosing own_action against an opponent multiset."""
        opponents = np.asarray(opponents, dtype=np.int64).reshape(1, self.players - 1)
        return float(self.lookup([own_action], opponents)[0])

    @property
    def entry_count(self):
        return self.table.size

    @property
    def action_counts(self):
        return (self.actions,) * self.players

    @property
    def dense_entry_count(self):
        return self.players * self.actions**self.players

    def is_desk_scale(self):
        return self.dense_entry_count <= DESK_SCALE_ENTRIES

    def offset(self, constant):
        return SymmetricGame(self.players, self.actions, self.table + float(constant))

    # -- exact evaluation against a shared mixed strategy -------------------

    @staticmethod
    def _multiset_weights(multisets, actions):
        """Action-count matrix and log multinomial coefficients for iid draws."""
        from scipy.special import gammaln

        size = multisets.shape[1]
        counts = np.zeros((multisets.shape[0], actions), dtype=np.float64)
        rows = np.arange(multisets.shape[0])
        for column in multisets.T:
            # one entry per row in each column: no index repeats within a step
            counts[rows, column] += 1.0
        log_coef = math.lgamma(size + 1) - gammaln(counts + 1.0).sum(axis=1)
        return counts, log_coef

    def _opponent_weights(self):
        """Action counts and log multinomial coefficients of the opponent
        multisets, in table column order; cached."""
        if self._weights is None:
            opponents = _multiset_rows(self.actions, self.players - 1)
            self._weights = self._multiset_weights(opponents, self.actions)
        return self._weights

    def _iid_weights(self, strategy, counts, log_coef):
        """Probability of each multiset, given by its action counts and log
        multinomial coefficient, under iid play of `strategy`."""
        x = as_distribution(strategy, self.actions)
        return np.exp(log_coef + counts @ np.log(np.clip(x, 1e-300, None)))

    def opponent_profile_weights(self, strategy):
        """Probability of each opponent multiset under iid play of `strategy`."""
        return self._iid_weights(strategy, *self._opponent_weights())

    def deviation_payoffs(self, strategy):
        """Exact expected payoff of each own action when opponents play `strategy`."""
        return self.table @ self.opponent_profile_weights(strategy)

    def pair_payoff_matrix(self, strategy):
        """Exact m x m matrix G[r, c] = E[u(r; c, rest)] with rest ~ strategy iid.

        G is the focal player's view of the bimatrix game against one designated
        opponent; by exchangeability the opponent's view is G.T.
        """
        table, counts, log_coef = self._pair_table()
        weights = self._iid_weights(strategy, counts, log_coef)
        m = self.actions
        return (weights @ table.reshape(-1, m * m)).reshape(m, m)

    def _pair_table(self):
        """u(r; c, rest) as a (K, m, m) table, one contiguous m x m block per
        rest multiset in colex rank order, plus the rest-multiset weights; cached.

        Indexes the table: u(r; c, rest) = table[r, column of the opponent
        multiset c + rest], with no payoff lookups of its own.
        """
        if self._pair_cache is None:
            m, n = self.actions, self.players
            column = self._columns()
            rows = _multiset_rows(m, n - 2)
            # rests in colex rank order: a rest's rank is its table row
            rest = np.empty_like(rows)
            rest[multiset_rank_array(rows, m)] = rows
            k = rest.shape[0]
            opponents = np.column_stack([np.repeat(np.arange(m), k), np.tile(rest, (m, 1))])
            opponents.sort(axis=1)
            # columns[k, c]: table column of the opponent multiset c + rest_k
            columns = column[multiset_rank_array(opponents, m)].reshape(m, k).T
            table = np.empty((k, m, m))
            # one own action at a time: no temporary the size of the table
            for r in range(m):
                table[:, r, :] = self.table[r, columns]
            counts, log_coef = self._multiset_weights(rest, m)
            self._pair_cache = (table, counts, log_coef)
        return self._pair_cache

    def pair_block_at(self, rest_actions):
        """The (m, m) blocks u(r; c, rest) for opponent rests fixed: one rest
        of n - 2 actions gives one block, an (S, n - 2) array an (S, m, m)
        stack. Served from the cached pair table when it fits
        ``PAIR_TABLE_ENTRIES``, else read with one lookup."""
        m = self.actions
        rests = np.asarray(rest_actions, dtype=np.int64)
        single = rests.ndim == 1
        rests = np.sort(np.atleast_2d(rests), axis=1)
        if rests.shape[1] != self.players - 2:
            raise ValueError(f"rest of {rests.shape[1]} actions, want {self.players - 2}")
        if rests.size and (rests[:, 0].min() < 0 or rests[:, -1].max() >= m):
            raise ValueError(f"actions outside [0, {m})")
        # m^2 entries per multiset of the n - 2 other opponents
        size = m * m * math.comb(m + self.players - 3, self.players - 2)
        if self._pair_cache is None and size > PAIR_TABLE_ENTRIES:
            actions = np.arange(m)
            count = rests.shape[0]
            opponents = np.column_stack(
                [np.repeat(rests, m * m, axis=0), np.tile(actions, count * m)]
            )
            own = np.tile(np.repeat(actions, m), count)
            blocks = self.lookup(own, opponents).reshape(count, m, m)
        else:
            blocks = self._pair_table()[0][multiset_rank_array(rests, m)]
        return blocks[0] if single else blocks

    def expand_to_tensor(self):
        """Dense GameTensor; desk-scale games only."""
        if not self.is_desk_scale():
            raise ValueError("game too large to expand densely")
        m, n = self.actions, self.players
        joints = np.indices((m,) * n).reshape(n, -1).T
        payoffs = [self.lookup(joints[:, i], np.delete(joints, i, axis=1)) for i in range(n)]
        return GameTensor(np.reshape(payoffs, (n, *(m,) * n)))

    def __repr__(self):
        return (
            f"SymmetricGame(players={self.players}, actions={self.actions}, "
            f"entries={self.entry_count})"
        )
