"""Exact payoff evaluation by full enumeration: utilities, gradients, and the
pairwise bimatrix blocks shared by every solver. Desk-scale tensors only."""

import itertools

import numpy as np

from .normalform import SymmetricGame, as_profile


def _contract(tensor, profile, keep):
    """Contract every axis of an n-axis tensor except those in `keep`."""
    out = tensor
    removed = 0
    for j in range(len(profile)):
        if j in keep:
            continue
        out = np.tensordot(out, profile[j], axes=([j - removed], [0]))
        removed += 1
    return out


def expected_utility(game, x, player, validate=True):
    """Exact expected utility u_i(x) by full enumeration over outcomes."""
    profile = as_profile(x, game.action_counts) if validate else x
    if isinstance(game, SymmetricGame):
        grad = _symmetric_deviation_payoffs(game, profile, player)
        return float(np.dot(profile[player], grad))
    value = _contract(game.player_tensor(player), list(profile), keep=())
    return float(value)


def payoff_gradient(game, x, player, validate=True):
    """Expected payoff of each of `player`'s actions against x_{-i}.

    Component a equals E_{x_-i}[u_i(a, x_-i)], so u_i(x) = x_i . gradient.
    """
    if isinstance(game, SymmetricGame):
        profile = as_profile(x, game.action_counts) if validate else x
        return _symmetric_deviation_payoffs(game, profile, player)
    profile = as_profile(x, game.action_counts) if validate else x
    return _contract(game.player_tensor(player), list(profile), keep=(player,))


def pairwise_jacobian_exact(game, x, owner, partner, validate=True):
    """The bimatrix block H[r, c] = E_{x_-ij}[u_owner(r, c, x_-ij)].

    Rows index the owner's actions, columns the partner's. For any partner j,
    H @ x_j reproduces the owner's payoff gradient.
    """
    if owner == partner:
        raise ValueError("pairwise block needs two distinct players")
    if isinstance(game, SymmetricGame):
        raise TypeError(
            "pairwise blocks on compressed symmetric games come from "
            "SymmetricGame.pair_payoff_matrix; expand_to_tensor for the general op"
        )
    profile = as_profile(x, game.action_counts) if validate else x
    block = _contract(game.player_tensor(owner), list(profile), keep=(owner, partner))
    if partner < owner:  # keep owner's actions on the rows
        block = block.T
    return block


class PairwiseMatrices:
    """All ordered-pair blocks H[i][j] (m_i x m_j, payoffs to player i)."""

    def __init__(self, blocks, action_counts):
        self.action_counts = tuple(action_counts)
        self.players = len(self.action_counts)
        self._blocks = {}
        for key, values in blocks.items():
            i, j = key
            expected = (self.action_counts[i], self.action_counts[j])
            if values.shape != expected:
                raise ValueError(f"block {key} has shape {values.shape}, expected {expected}")
            self._blocks[key] = values

    def matrix(self, owner, partner):
        try:
            return self._blocks[(owner, partner)]
        except KeyError:
            raise ValueError(f"missing pairwise block ({owner}, {partner})") from None

    def pairs(self):
        return sorted(self._blocks)

    def payoff_gradient(self, x, player):
        """Average of H[i][j] @ x_j over partners j, the sampled-pipeline gradient."""
        profile = x.strategies if hasattr(x, "strategies") else x
        terms = [
            self.matrix(player, j) @ profile[j]
            for j in range(self.players)
            if j != player
        ]
        return sum(terms) / len(terms)

    def payoff_gradients(self, x):
        """Every player's payoff_gradient, in player order."""
        return [self.payoff_gradient(x, i) for i in range(self.players)]


def exact_pairwise_matrices(game, x, validate=True):
    """All pairwise blocks computed by exact marginalization."""
    profile = as_profile(x, game.action_counts) if validate else x
    blocks = {}
    for i in range(game.players):
        for j in range(game.players):
            if i != j:
                blocks[(i, j)] = pairwise_jacobian_exact(
                    game, profile, i, j, validate=False
                )
    return PairwiseMatrices(blocks, game.action_counts)


def _symmetric_deviation_payoffs(game, profile, player):
    """Player's action payoffs on a SymmetricGame under an arbitrary profile.

    Uses the fast shared-strategy path when all opponents play identically,
    otherwise enumerates the product of opponent supports (cheap for pure or
    sparse profiles).
    """
    others = [profile[j] for j in range(game.players) if j != player]
    first = others[0]
    if all(np.array_equal(first, o) for o in others[1:]):
        return game.deviation_payoffs(first)
    supports = [np.flatnonzero(o > 0.0) for o in others]
    width = int(np.prod([s.size for s in supports]))
    if width * game.actions > 20_000_000:
        raise ValueError("opponent support too large for exact enumeration")
    actions = np.arange(game.actions)
    grad = np.zeros(game.actions)
    for combo in itertools.product(*supports):
        w = float(np.prod([o[a] for o, a in zip(others, combo)]))
        grad += w * game.lookup(actions, np.broadcast_to(combo, (actions.size, len(combo))))
    return grad
