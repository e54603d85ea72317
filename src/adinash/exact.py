"""Exact payoff evaluation by full enumeration: utilities, gradients, and the
pairwise bimatrix blocks shared by every solver. Desk-scale tensors only.

On a GameTensor each of these is a chain: one player's payoff tensor
contracted with the strategies of the players it marginalizes out, in player
order (all but the kept players: two for a block, the player for a payoff
gradient, none for a utility). `_contract_chains` is the one kernel. It runs
every chain of a call as one batched contraction per step, so all n(n-1)
blocks of a profile cost one pass, and it reproduces the bytes of a
per-chain np.tensordot chain exactly: the annealed warm-up amplifies
last-bit differences into a different path. Stacks are split by owner to
stay within DESK_SCALE_ENTRIES entries.
"""

import collections
import functools
import itertools
import math

import numpy as np

from .normalform import DESK_SCALE_ENTRIES, SymmetricGame, as_profile, validate_integer


def _chain(owner, keep, players):
    """Owner's payoff tensor contracted over every player outside `keep`, in
    player order: (owner, contracted players)."""
    return owner, tuple(p for p in range(players) if p not in keep)


def _owner_chunks(counts, chains, budget):
    """Consecutive owner ranges [lo, hi) whose chains together never feed more
    than `budget` entries to one contraction step (at least one owner each).
    No step feeds a chain more than its owner's whole tensor."""
    per_owner = collections.Counter(owner for owner, _ in chains)
    chunks, total = [], 0
    for owner in sorted(per_owner):
        cost = per_owner[owner] * math.prod(counts)
        if chunks and total + cost <= budget:
            chunks[-1][1] = owner + 1
            total += cost
        else:
            chunks.append([owner, owner + 1])
            total = cost
    return [tuple(c) for c in chunks]


def _chunk_plan(counts, chains, lo, hi):
    """Steps that contract the chains owned by players in [lo, hi).

    A state is an owner's tensor after its first t contractions; chains of
    one owner that contract the same players first share it. Level t holds
    its states in blocks, one (rows, *shape) array per remaining shape; level
    0 is the owners' payoff tensors. Step t makes level t+1: states whose
    parents sit in the same block and whose next axis has the same position
    there form one group, contracted by one batched matmul into a row range
    of an output block.
    """
    mine = [(owner, order) for owner, order in chains if lo <= owner < hi]
    where = {(owner, ()): (0, owner - lo) for owner, _ in mine}
    shapes, steps = [tuple(counts)], []
    for t in range(len(mine[0][1])):
        groups = {}
        for owner, order in mine:
            done, who = order[:t], order[t]
            block, row = where[(owner, done)]
            remaining = [p for p in range(len(counts)) if p not in done]
            members = groups.setdefault((block, remaining.index(who)), {})
            members[(owner, order[: t + 1])] = (row, who)
        out_shapes, fill, step, where = [], [], [], {}
        for (block, pos), members in sorted(groups.items()):
            shape = shapes[block][:pos] + shapes[block][pos + 1 :]
            if shape not in out_shapes:
                out_shapes.append(shape)
                fill.append(0)
            dst = out_shapes.index(shape)
            start = fill[dst]
            fill[dst] += len(members)
            ordered = sorted(members.items(), key=lambda item: item[1])
            rows = np.array([row for _, (row, _) in ordered])
            axes = len(shapes[block])
            perm = (0, *(1 + a for a in range(axes) if a != pos), 1 + pos)
            players = np.array([p for _, (_, p) in ordered])
            step.append((block, rows, perm, players, dst, start, start + len(members)))
            for k, (state, _) in enumerate(ordered):
                where[state] = (dst, start + k)
        steps.append((tuple(zip(fill, out_shapes)), tuple(step)))
        shapes = out_shapes
    return lo, hi, mine, steps, [where[chain] for chain in mine]


@functools.cache
def _chain_plan(counts, chains, budget):
    return [_chunk_plan(counts, chains, lo, hi) for lo, hi in _owner_chunks(counts, chains, budget)]


def _contract_chains(game, profile, chains):
    """Every chain (owner, contracted players) of a GameTensor at once: the
    owner's payoff tensor contracted with x_p for each contracted p, the
    other axes left in player order. One array per chain, in chain order.

    Each contraction is the one np.tensordot makes on a single chain: the
    contracted axis moved last, the tensor reshaped C-ordered to (rows, m),
    and one gemv with x_p. A batched matmul runs that same gemv on every
    chain of a group, so the results equal per-chain tensordot chains bit for
    bit; chains that share their first contractions share those results.
    """
    counts = tuple(game.action_counts)
    vectors = np.zeros((len(counts), max(counts)))
    for p, strategy in enumerate(profile):
        vectors[p, : len(strategy)] = strategy
    out = {}
    for lo, hi, mine, steps, finals in _chain_plan(counts, chains, DESK_SCALE_ENTRIES):
        blocks = [game.payoffs[lo:hi]]
        for out_shapes, step in steps:
            outs = [np.empty((rows, *shape)) for rows, shape in out_shapes]
            for block, rows, perm, players, dst, start, stop in step:
                stack = blocks[block][rows]
                width = stack.shape[perm[-1]]
                moved = stack.transpose(perm).reshape(stop - start, -1, width)
                target = outs[dst][start:stop].reshape(stop - start, -1, 1)
                np.matmul(moved, vectors[players, :width, None], out=target)
            blocks = outs
        for chain, (block, row) in zip(mine, finals):
            out[chain] = blocks[block][row]
    return [out[chain] for chain in chains]


def expected_utility(game, x, player, validate=True):
    """Exact expected utility u_i(x) by full enumeration over outcomes."""
    player = validate_integer("player", player, 0, game.players)
    profile = as_profile(x, game.action_counts) if validate else x
    if isinstance(game, SymmetricGame):
        grad = _symmetric_deviation_payoffs(game, profile, player)
        return float(np.dot(profile[player], grad))
    (value,) = _contract_chains(game, profile, (_chain(player, (), game.players),))
    return float(value)


def payoff_gradient(game, x, player, validate=True):
    """Expected payoff of each of `player`'s actions against x_{-i}.

    Component a equals E_{x_-i}[u_i(a, x_-i)], so u_i(x) = x_i . gradient.
    """
    player = validate_integer("player", player, 0, game.players)
    profile = as_profile(x, game.action_counts) if validate else x
    if isinstance(game, SymmetricGame):
        return _symmetric_deviation_payoffs(game, profile, player)
    (grad,) = _contract_chains(game, profile, (_chain(player, (player,), game.players),))
    return grad


def payoff_gradients(game, x, validate=True):
    """Every player's payoff_gradient, in player order; on a GameTensor in
    one batched contraction."""
    profile = as_profile(x, game.action_counts) if validate else x
    if isinstance(game, SymmetricGame):
        return [_symmetric_deviation_payoffs(game, profile, i) for i in range(game.players)]
    chains = tuple(_chain(i, (i,), game.players) for i in range(game.players))
    return _contract_chains(game, profile, chains)


def _require_tensor(game):
    if isinstance(game, SymmetricGame):
        raise TypeError(
            "pairwise blocks on compressed symmetric games come from "
            "SymmetricGame.pair_payoff_matrix; expand_to_tensor for the general op"
        )


def _oriented(block, owner, partner):
    """Owner's actions on the rows: a transposed view when partner < owner."""
    return block.T if partner < owner else block


def pairwise_jacobian_exact(game, x, owner, partner, validate=True):
    """The bimatrix block H[r, c] = E_{x_-ij}[u_owner(r, c, x_-ij)].

    Rows index the owner's actions, columns the partner's. For any partner j,
    H @ x_j reproduces the owner's payoff gradient.
    """
    owner = validate_integer("owner", owner, 0, game.players)
    partner = validate_integer("partner", partner, 0, game.players)
    if owner == partner:
        raise ValueError("pairwise block needs two distinct players")
    _require_tensor(game)
    profile = as_profile(x, game.action_counts) if validate else x
    chain = _chain(owner, (owner, partner), game.players)
    (block,) = _contract_chains(game, profile, (chain,))
    return _oriented(block, owner, partner)


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


@functools.cache
def _pair_chains(players):
    """Every ordered pair (i, j) and the chain of its block."""
    pairs = tuple((i, j) for i in range(players) for j in range(players) if i != j)
    return pairs, tuple(_chain(i, (i, j), players) for i, j in pairs)


def exact_pairwise_matrices(game, x, validate=True):
    """All pairwise blocks computed by exact marginalization, in one batched
    contraction."""
    _require_tensor(game)
    profile = as_profile(x, game.action_counts) if validate else x
    pairs, chains = _pair_chains(game.players)
    blocks = _contract_chains(game, profile, chains)
    return PairwiseMatrices(
        {(i, j): _oriented(b, i, j) for (i, j), b in zip(pairs, blocks)}, game.action_counts
    )


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
