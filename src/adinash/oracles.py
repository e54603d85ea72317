"""Query-by-joint-action payoff access, possibly stochastic.

Every scalar payoff an oracle hands out increments its query counter by one;
that counter is the efficiency metric all solver comparisons report. Stochastic
oracles derive each draw from (seed, query index) on a counter-based Philox
stream, so concurrent queries stay reproducible.
"""

import threading

import numpy as np

from .normalform import GameTensor, SymmetricGame, validate_joint_action


class PayoffOracle:
    """Base class: query(player, joint_action) -> one payoff sample."""

    deterministic = True

    def __init__(self, players, action_counts):
        self.players = players
        self.action_counts = tuple(action_counts)
        self._queries = 0
        self._lock = threading.Lock()

    @property
    def queries(self):
        return self._queries

    def _count(self, k):
        with self._lock:
            start = self._queries
            self._queries += int(k)
        return start

    def query(self, player, joint_action):
        raise NotImplementedError

    def pair_payoffs(self, owner, partner, base_joint):
        """Fill the (m_owner, m_partner) block by substituting (r, c) into base.

        Counts m_owner * m_partner queries. Subclasses override with vector code.
        """
        m_i = self.action_counts[owner]
        m_j = self.action_counts[partner]
        block = np.zeros((m_i, m_j))
        joint = list(base_joint)
        for r in range(m_i):
            for c in range(m_j):
                joint[owner] = r
                joint[partner] = c
                block[r, c] = self.query(owner, joint)
        return block

    def is_symmetric(self):
        return False


class TensorOracle(PayoffOracle):
    """Deterministic oracle backed by a dense payoff tensor."""

    def __init__(self, game):
        if not isinstance(game, GameTensor):
            raise TypeError("TensorOracle wraps a GameTensor")
        super().__init__(game.players, game.action_counts)
        self.game = game

    def query(self, player, joint_action):
        joint = validate_joint_action(joint_action, self.action_counts)
        self._count(1)
        return float(self.game.payoffs[(player, *joint)])

    def pair_payoffs(self, owner, partner, base_joint):
        joint = validate_joint_action(base_joint, self.action_counts)
        take = [slice(None) if k in (owner, partner) else joint[k] for k in range(self.players)]
        block = self.game.payoffs[(owner, *take)]
        if partner < owner:
            block = block.T
        self._count(block.size)
        return np.array(block, dtype=float)


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
        """Focal-vs-designated-opponent block with the rest fixed; m^2 queries.

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
        self.seed = int(seed)

    def mean_game(self):
        """The expected-payoff game; exact ADI against it scores the true winrates."""
        return self.game

    def _read(self, probs):
        """One Bernoulli(p) draw per winrate, from the Philox stream at the query count."""
        start = self._count(probs.size)
        stream = np.random.Generator(np.random.Philox(key=self.seed, counter=start))
        return (stream.random(probs.shape) < probs).astype(float)

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
