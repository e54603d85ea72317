"""Normal-form game representations.

Three views of the same object: a dense payoff tensor, a symmetric game
stored as its deviation table (own action x opponent multiset), and (in
:mod:`adinash.oracles`) query-by-joint-action access.
"""

import functools
import itertools
import math

import numpy as np

from .simplex import _check_distribution, _check_rows, as_distribution, map_rows, stack_rows

DESK_SCALE_ENTRIES = 10_000_000
# symmetric pair tables above this many entries are not cached; each batch of
# blocks is then gathered alone, by the code that builds the table
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
    """comb(v, j) at the entries a rank reads, v = a + j - 1 for actions a in
    [0, actions); every other entry is 0. Each entry read is at most a rank,
    so it fits in int64 whenever the multiset count does."""
    table = np.zeros((actions + k, k + 1), dtype=np.int64)
    for j in range(1, k + 1):
        for v in range(j - 1, actions + j - 1):
            table[v, j] = math.comb(v, j)
    return table


def multiset_rank_array(multisets, actions):
    """Vectorized multiset_rank over an (N, k) array of sorted rows, summed a
    column at a time; an unsorted row or an action outside [0, actions) raises ValueError."""
    ms = np.atleast_2d(np.asarray(multisets, dtype=np.int64))
    if any((ms[:, j] > ms[:, j + 1]).any() for j in range(ms.shape[1] - 1)):
        raise ValueError("multiset rows must be sorted ascending")
    return _sorted_rank_array(ms, actions)


def _sorted_rank_array(ms, actions):
    """multiset_rank_array of an (N, k) int64 array whose rows the caller has
    sorted: the range is checked, the order is not."""
    if ms.size and (ms[:, 0].min() < 0 or ms[:, -1].max() >= actions):
        raise ValueError(f"actions outside [0, {actions})")
    k = ms.shape[1]
    table = _comb_table(actions, k)
    return sum((table[ms[:, j] + j, j + 1] for j in range(k)), np.zeros(len(ms), np.int64))


def enumerate_multisets(actions, size):
    """Ascending-sorted multisets of the given size, in lexicographic order."""
    return itertools.combinations_with_replacement(range(actions), size)


def _multiset_rows(actions, size):
    """enumerate_multisets as an (entries, size) int array; one empty row for
    size 0."""
    if size == 0:
        return np.empty((1, 0), dtype=np.int64)
    count = multiset_count(actions, size)
    flat = itertools.chain.from_iterable(enumerate_multisets(actions, size))
    return np.fromiter(flat, np.int64, count=count * size).reshape(count, size)


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
    or reject (NaN, inf) or that lies outside its player's range raises
    ValueError naming the player."""
    joint = tuple(joint)
    a = []
    try:
        for v in joint:
            a.append(int(v))
    except (ValueError, OverflowError):
        # the failing action is the one after those converted
        raise ValueError(f"player {len(a)} action {joint[len(a)]!r} is not an integer") from None
    a = tuple(a)
    if len(a) != len(action_counts):
        raise ValueError(f"joint action length {len(a)} != players {len(action_counts)}")
    for i, (v, ai, mi) in enumerate(zip(joint, a, action_counts)):
        if ai != v:
            raise ValueError(f"player {i} action {v!r} is not an integer")
        if not 0 <= ai < mi:
            raise ValueError(f"player {i} action {ai} outside [0, {mi})")
    return a


class StrategyProfile:
    """One mixed strategy per player, each on its simplex.

    A profile is built in one of three ways:

    - ``StrategyProfile(strategies)`` checks each strategy and divides it by
      its sum, the one place drift within ``RENORMALIZE_TOL`` is repaired;
    - ``_checked``, which ``as_profile`` calls on outside strategies, checks
      them the same way and keeps their bytes;
    - ``_stepped`` holds the rows a descent step returned, unchecked: the
      step already ensured what the check tests (``descent_step``), so the
      check would hand back the same bytes. Only the descent loops build it.

    When every player has the same action count the strategies are the rows
    of one (n, m) array, ``stack``, checked in one call; otherwise ``stack``
    is None.
    """

    def __init__(self, strategies):
        self._hold(map_rows(lambda r: r / r.sum(-1, keepdims=True), _checked_rows(strategies)))

    @classmethod
    def _checked(cls, strategies):
        return cls.__new__(cls)._hold(_checked_rows(strategies))

    @classmethod
    def _stepped(cls, rows):
        """The rows of a descent step, an (n, m) array or a list, as given."""
        return cls.__new__(cls)._hold(rows)

    def _hold(self, rows):
        self.stack = rows if isinstance(rows, np.ndarray) else None
        self.strategies = tuple(rows)
        return self

    @classmethod
    def uniform(cls, action_counts):
        return cls([np.full(m, 1.0 / m) for m in action_counts])

    @classmethod
    def one_hot(cls, actions, action_counts):
        return cls([np.eye(m)[a] for a, m in zip(actions, action_counts)])

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


def _checked_rows(strategies):
    """Strategies checked by row: one (n, m) array for one length, else a list."""
    rows = stack_rows(strategies)
    if isinstance(rows, np.ndarray):
        return _check_rows(np.asarray(rows, dtype=float))
    return [_check_distribution(s) for s in rows]


def as_profile(x, action_counts=None):
    """A StrategyProfile as is; other strategies checked, bytes kept (``_checked``)."""
    if not isinstance(x, StrategyProfile):
        x = StrategyProfile._checked(x)
    if action_counts is not None and x.action_counts != tuple(action_counts):
        raise ValueError(
            f"profile shapes {x.action_counts} do not match game {tuple(action_counts)}"
        )
    return x


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
        self._rows = None
        self._weights = None
        self._pair_cache = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_batch_function(cls, players, actions, batch_fn):
        """Build from a vectorized ``batch_fn(own (K',), opponents (K', n-1)) -> (K',)``,
        called once per own action over every opponent multiset (rows sorted
        ascending, in table column order). Every call is passed the same
        ``opponents`` array, so ``batch_fn`` may keep what it derives from it
        (``make_blotto`` does); it must not write to it."""
        opponents = _multiset_rows(actions, players - 1)
        table = np.empty((actions, opponents.shape[0]))
        for a in range(actions):
            table[a] = batch_fn(np.full(opponents.shape[0], a), opponents)
        game = cls(players, actions, table)
        game._rows = opponents
        return game

    @classmethod
    def from_tensor(cls, game):
        """Compress a dense tensor, verifying permutation invariance: the
        expansion of the compressed game must reproduce every entry to 1e-12."""
        n = game.players
        if len(set(game.action_counts)) != 1:
            raise ValueError("symmetric game needs identical action counts")
        m = game.action_counts[0]
        opponents = _multiset_rows(m, n - 1)
        # player 0 plays the own action, players 1.. the sorted opponent multiset
        table = game.payoffs[0][(np.arange(m)[:, None], *opponents.T[:, None, :])]
        symmetric = cls(n, m, table)
        mismatch = np.abs(symmetric.expand_to_tensor().payoffs - game.payoffs) > 1e-12
        if mismatch.any():
            player, *joint = np.argwhere(mismatch)[0].tolist()
            raise ValueError(
                f"tensor is not permutation-invariant: player {player} at joint {tuple(joint)}"
            )
        return symmetric

    # -- lookups -----------------------------------------------------------

    def _table_index(self, complements):
        """Table column of each row of m - 1 - O, opponent actions O (N, n-1) in
        any order, sorted here in place: the column of sorted O is K' - 1 minus
        the colex rank of sort(m - 1 - O). An action outside [0, m) raises ValueError."""
        complements.sort(axis=1)
        return self.table.shape[1] - 1 - _sorted_rank_array(complements, self.actions)

    def lookup(self, own, opponents):
        """Payoffs of own actions (N,) against opponent actions (N, n-1):
        ``table[own, column of the sorted opponents]``."""
        own = np.asarray(own, dtype=np.int64)
        if np.any((own < 0) | (own >= self.actions)):
            raise ValueError(f"actions outside [0, {self.actions})")
        complements = self.actions - 1 - np.asarray(opponents, dtype=np.int64)
        return self.table[own, self._table_index(complements)]

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
    def _multiset_weights(multisets):
        """The sorted multiset rows (K', size) and their log multinomial
        coefficients for iid draws: lgamma(size + 1) minus the log-factorial
        of each run of equal actions. Nothing m-wide is built."""
        from scipy.special import gammaln

        count, size = multisets.shape
        # run[:, i]: position i's place in its run of equal actions, 1-based
        run = np.ones((count, size), dtype=np.int64)
        for i in range(1, size):
            same = multisets[:, i] == multisets[:, i - 1]
            run[same, i] = run[same, i - 1] + 1
            # only a run's last position keeps its length; log 0! = 0
            run[same, i - 1] = 0
        log_factorial = gammaln(np.arange(size + 1) + 1.0)
        log_coef = math.lgamma(size + 1) - log_factorial[run].sum(axis=1)
        return multisets, log_coef

    def _opponent_weights(self):
        """Sorted rows and log multinomial coefficients of the opponent
        multisets, in table column order; cached, reusing the rows
        ``from_batch_function`` built."""
        if self._weights is None:
            if self._rows is None:
                self._rows = _multiset_rows(self.actions, self.players - 1)
            self._weights = self._multiset_weights(self._rows)
        return self._weights

    def _iid_weights(self, strategy, rows, log_coef):
        """Probability of each multiset, given by its sorted row and log
        multinomial coefficient, under iid play of `strategy`."""
        x = as_distribution(strategy, self.actions)
        log_x = np.log(np.clip(x, 1e-300, None))
        return np.exp(log_coef + log_x[rows].sum(axis=1))

    def deviation_payoffs(self, strategy):
        """Exact expected payoff of each own action when opponents play `strategy`."""
        return self.table @ self._iid_weights(strategy, *self._opponent_weights())

    @property
    def pair_table_entries(self):
        """Entries of the (K, m, m) pair table: m^2 per multiset of the n - 2
        other opponents."""
        m = self.actions
        return m * m * math.comb(m + self.players - 3, self.players - 2)

    def pair_table_fits(self):
        """Whether the pair table is cached or may be: at most
        ``PAIR_TABLE_ENTRIES`` entries."""
        return self._pair_cache is not None or self.pair_table_entries <= PAIR_TABLE_ENTRIES

    def pair_payoff_matrix(self, strategy):
        """Exact m x m matrix G[r, c] = E[u(r; c, rest)] with rest ~ strategy iid.

        G is the focal player's view of the bimatrix game against one designated
        opponent; by exchangeability the opponent's view is G.T. It is read
        from the cached pair table, so a table over ``PAIR_TABLE_ENTRIES``
        entries raises ValueError instead of being built.
        """
        if not self.pair_table_fits():
            raise ValueError(
                f"the pair table has {self.pair_table_entries} entries, over "
                f"PAIR_TABLE_ENTRIES = {PAIR_TABLE_ENTRIES}; exact pair blocks need it cached"
            )
        table, rows, log_coef = self._pair_table()
        weights = self._iid_weights(strategy, rows, log_coef)
        m = self.actions
        return (weights @ table.reshape(-1, m * m)).reshape(m, m)

    def _pair_table(self):
        """u(r; c, rest) as a (K, m, m) table, one contiguous m x m block per
        rest multiset in colex rank order, plus the rest-multiset weights; cached."""
        if self._pair_cache is None:
            # rests in colex rank order (a rank is a row): lex rows complemented, reversed
            rest = (self.actions - 1 - _multiset_rows(self.actions, self.players - 2))[::-1, ::-1]
            self._pair_cache = (self._gather_blocks(rest), *self._multiset_weights(rest))
        return self._pair_cache

    def _gather_blocks(self, rests):
        """The (S, m, m) blocks u(r; c, rest) of sorted rests (S, n - 2),
        indexed from the table: u(r; c, rest) = table[r, column of the
        opponent multiset c + rest], with no payoff lookups of its own."""
        m = self.actions
        count = rests.shape[0]
        complements = m - 1 - np.column_stack([np.arange(m).repeat(count), np.tile(rests, (m, 1))])
        # columns[s, c]: table column of the opponent multiset c + rest_s
        columns = self._table_index(complements).reshape(m, count).T
        blocks = np.empty((count, m, m))
        # one own action at a time: no temporary the size of the table
        for r in range(m):
            blocks[:, r, :] = self.table[r, columns]
        return blocks

    def pair_block_at(self, rest_actions):
        """The (m, m) blocks u(r; c, rest) for opponent rests fixed: one rest
        of n - 2 actions gives one block, an (S, n - 2) array an (S, m, m)
        stack. Served from the cached pair table when it fits
        ``PAIR_TABLE_ENTRIES``, else gathered for this batch alone."""
        m = self.actions
        rests = np.asarray(rest_actions)
        if rests.dtype.kind not in "iu" and not (
            rests.dtype.kind == "f" and (np.abs(rests) < 2**63).all() and (rests % 1 == 0).all()
        ):
            raise ValueError(f"rest_actions must be integers, got {rest_actions!r}")
        single = rests.ndim == 1
        rests = np.sort(np.atleast_2d(rests).astype(np.int64, copy=False), axis=1)
        if rests.shape[1] != self.players - 2:
            raise ValueError(f"rest of {rests.shape[1]} actions, want {self.players - 2}")
        if not self.pair_table_fits():
            blocks = self._gather_blocks(rests)
        else:
            ranks = _sorted_rank_array(rests, m)
            blocks = self._pair_table()[0][ranks]
        return blocks[0] if single else blocks

    def expand_to_tensor(self):
        """Dense GameTensor; desk-scale games only."""
        if not self.is_desk_scale():
            raise ValueError("game too large to expand densely")
        m, n = self.actions, self.players
        joints = np.indices((m,) * n).reshape(n, -1).T
        first = self.lookup(joints[:, 0], joints[:, 1:]).reshape((m,) * n)
        # u_i(a) = u(a_i; a_-i) is player 0's payoff with a_0 and a_i swapped
        return GameTensor(np.stack([np.swapaxes(first, 0, i) for i in range(n)]))

    def __repr__(self):
        return (
            f"SymmetricGame(players={self.players}, actions={self.actions}, "
            f"entries={self.entry_count})"
        )
