"""Query-by-joint-action payoff access, possibly stochastic.

Every scalar payoff an oracle hands out increments its query counter by one;
that counter is the efficiency metric all solver comparisons report. Stochastic
oracles derive each draw from (seed, query index) on a counter-based Philox
stream, so a run's draws depend only on the order of its queries.
"""

import math

import numpy as np

from .normalform import GameTensor, SymmetricGame, validate_integer, validate_joint_action


class PayoffOracle:
    """Base class: query(player, joint_action) -> one payoff sample.

    An oracle is single-threaded: neither its query counter nor its game's
    lazily built tables are guarded against concurrent use. Parallel runs
    each hold their own oracle.
    """

    deterministic = True

    def __init__(self, players, action_counts):
        self.players = players
        self.action_counts = tuple(action_counts)
        self._queries = 0

    @property
    def queries(self):
        return self._queries

    def _count(self, k):
        """Advance the counter by `k` queries; returns the index of the first."""
        start = self._queries
        self._queries += int(k)
        return start

    def query(self, player, joint_action):
        raise NotImplementedError

    def pair_payoffs(self, owner, partner, base_joint):
        """The (m_owner, m_partner) block with (r, c) substituted into base;
        counts m_owner * m_partner queries."""
        raise NotImplementedError

    def is_symmetric(self):
        return False


class TensorOracle(PayoffOracle):
    """Deterministic oracle backed by a dense payoff tensor."""

    def __init__(self, game):
        if not isinstance(game, GameTensor):
            raise TypeError("TensorOracle wraps a GameTensor")
        super().__init__(game.players, game.action_counts)
        self.game = game
        self._plans = {}

    def query(self, player, joint_action):
        joint = validate_joint_action(joint_action, self.action_counts)
        self._count(1)
        return float(self.game.payoffs[(player, *joint)])

    def pair_payoffs(self, owner, partner, base_joint):
        """The (m_owner, m_partner) block with (r, c) substituted into base;
        counts m_owner * m_partner queries. A partner < owner block is
        F-ordered: the transpose of the C-ordered slice.

        Many blocks in one gather: with `owner` and `partner` equal-length
        int arrays of P ordered pairs and `base_joint` an (S, n) int array of
        joint actions, on a game whose players have one action count m, an
        (S, P, m, m) stack whose block (s, p) is the C-ordered slice, with
        the lower-numbered player of pair p on its rows: H[i][j] when i < j,
        the memory of the transposed H[i][j] when j < i.
        """
        if np.ndim(owner) == 0:
            joint = validate_joint_action(base_joint, self.action_counts)
            take = [slice(None) if k in (owner, partner) else joint[k] for k in range(self.players)]
            block = self.game.payoffs[(owner, *take)]
            if partner < owner:
                block = block.T
            self._count(block.size)
            return np.array(block, dtype=float)
        joints = np.asarray(base_joint)
        m = self.action_counts[0]
        if len(set(self.action_counts)) != 1:
            raise ValueError("stacked block reads need one action count for every player")
        if joints.ndim != 2 or joints.shape[1] != self.players:
            raise ValueError(f"joint actions of shape {joints.shape}, want (S, {self.players})")
        if joints.dtype.kind not in "iu" or joints.min() < 0 or joints.max() >= m:
            raise ValueError(f"joint actions must be integers in [0, {m})")
        weights, offsets = self._gather_plan(np.asarray(owner), np.asarray(partner))
        blocks = self.game.payoffs.reshape(-1)[(joints @ weights)[:, :, None, None] + offsets]
        self._count(blocks.size)
        return blocks

    def _gather_plan(self, owners, partners):
        """Flat payoff index of block (s, p, r, c) = joints[s] @ weights[:, p]
        + offsets[p, r, c]: the joint's other players' actions, and the
        owner's tensor with r and c at the pair's lower and higher player;
        cached per pair list."""
        key = (owners.tobytes(), partners.tobytes())
        if key not in self._plans:
            n, m = self.players, self.action_counts[0]
            strides = m ** np.arange(n, -1, -1)  # player axis, then action axes
            weights = np.tile(strides[1:, None], (1, owners.size))
            weights[owners, np.arange(owners.size)] = 0
            weights[partners, np.arange(owners.size)] = 0
            low, high = np.minimum(owners, partners), np.maximum(owners, partners)
            actions = np.arange(m)
            offsets = (
                (owners * strides[0])[:, None, None]
                + actions[None, :, None] * strides[1 + low][:, None, None]
                + actions[None, None, :] * strides[1 + high][:, None, None]
            )
            self._plans[key] = (weights, offsets)
        return self._plans[key]


class SymmetricOracle(PayoffOracle):
    """Deterministic oracle over a multiset-compressed symmetric game."""

    def __init__(self, game):
        if not isinstance(game, SymmetricGame):
            raise TypeError("SymmetricOracle wraps a SymmetricGame")
        super().__init__(game.players, game.action_counts)
        self.game = game

    def is_symmetric(self):
        return True

    def _read(self, payoffs):
        """Hand out `payoffs` as queries: count them and return the samples."""
        self._count(payoffs.size)
        return payoffs

    def query(self, player, joint_action):
        joint = validate_joint_action(joint_action, self.action_counts)
        opponents = joint[:player] + joint[player + 1:]
        return float(self._read(np.array([self.game.payoff(joint[player], opponents)]))[0])

    def pair_payoffs(self, owner, partner, base_joint):
        joint = validate_joint_action(base_joint, self.action_counts)
        rest = [joint[k] for k in range(self.players) if k not in (owner, partner)]
        return self.symmetric_pair_payoffs(rest)

    def symmetric_pair_payoffs(self, rest_actions):
        """Focal-vs-designated-opponent blocks with the rest fixed; m^2 queries
        per block. One rest of n - 2 actions gives one (m, m) block, an
        (S, n - 2) array of rests an (S, m, m) stack.

        The partner's view of the same draw is the transpose, by exchangeability.
        """
        return self._read(self.game.pair_block_at(rest_actions))


class BernoulliOracle(SymmetricOracle):
    """Stochastic symmetric oracle: each query is a Bernoulli(winrate) draw.

    Winrates live in a SymmetricGame-shaped table with values in [0, 1]. Draw
    k of the oracle's lifetime is uniquely determined by (seed, k).
    """

    deterministic = False

    def __init__(self, winrates, seed=0):
        if not isinstance(winrates, SymmetricGame):
            raise TypeError("winrates must be a SymmetricGame-shaped table")
        if winrates.table.min() < 0.0 or winrates.table.max() > 1.0:
            raise ValueError("winrates must lie in [0, 1]")
        super().__init__(winrates)
        self.seed = validate_integer("seed", seed, 0, 2**128)
        self._stream = None

    def mean_game(self):
        """The expected-payoff game; exact ADI against it scores the true winrates."""
        return self.game

    def _read(self, probs):
        """One Bernoulli(p) draw per winrate. Each (m, m) block draws the
        uniforms ``Generator(Philox(key=seed, counter=start)).random`` gives,
        with `start` the query count where the block starts, so a stack of
        blocks draws what the same blocks read one by one would.

        Philox steps its counter before each group of 4 outputs, so one stream
        set to the read's first counter holds block b's outputs at positions
        [4 b size, 4 b size + size): the read takes 4 raw outputs per winrate
        and keeps the first `size` of each block's 4 size. A uniform is the top
        53 bits of an output times 2**-53, as ``Generator.random`` makes it."""
        start = self._count(probs.size)
        size = math.prod(probs.shape[-2:])
        if self._stream is None:
            self._stream = np.random.Philox(key=self.seed)
        state = self._stream.state
        state["state"]["counter"] = np.array([start, 0, 0, 0], dtype=np.uint64)
        # every read takes whole groups of 4, so the output buffer is empty here
        self._stream.state = state
        raw = self._stream.random_raw(4 * probs.size).reshape(-1, 4 * size)[:, :size]
        draws = (raw >> 11) * 2.0**-53
        return (draws.reshape(probs.shape) < probs).astype(float)

    # its own entry, not the base's: bench/tracer.py patches each class's
    # method, and delegating would count every block twice
    def symmetric_pair_payoffs(self, rest_actions):
        return self._read(self.game.pair_block_at(rest_actions))


def as_oracle(game_or_oracle):
    if isinstance(game_or_oracle, PayoffOracle):
        return game_or_oracle
    if isinstance(game_or_oracle, GameTensor):
        return TensorOracle(game_or_oracle)
    if isinstance(game_or_oracle, SymmetricGame):
        return SymmetricOracle(game_or_oracle)
    raise TypeError(f"cannot build an oracle from {type(game_or_oracle)!r}")
