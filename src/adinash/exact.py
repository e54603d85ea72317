"""Exact payoff evaluation by full enumeration: utilities, gradients, and the
pairwise bimatrix blocks shared by every solver. Desk-scale tensors only.

On a GameTensor each of these is a chain: one player's payoff tensor
contracted with the strategies of the players it marginalizes out, in player
order (all but the kept players: two for a block, the player for a payoff
gradient, none for a utility). `_contract_chains`, the one kernel, gives the
bytes of per-chain np.tensordot chains: the annealed warm-up amplifies last-bit
differences into a different path. With m actions per player it runs a call's
chains as one batched contraction per level, each level one (rows, m, ..., m)
array, split by owner within DESK_SCALE_ENTRIES entries, into one array: the
(n(n-1), m, m) blocks or (n, m) gradients. A ragged game reads the tensordot list.
"""

import collections
import functools
import itertools
import math

import numpy as np

from .normalform import DESK_SCALE_ENTRIES, SymmetricGame, as_profile, validate_integer
from .simplex import stack_rows


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
    """Steps that contract the chains owned by players in [lo, hi) of a game
    whose players all have m actions.

    A state is an owner's tensor after its first t contractions; chains of
    one owner that contract the same players first share it. Level t is one
    (rows, m, ..., m) array of states, level 0 the owners' payoff tensors.
    Chains contract in ascending player order, so a state's next player p
    sits at axis p - t. Step t makes level t+1: the states whose next axis
    is the same form one group, contracted by one batched matmul into a row
    range. The plan ends with each chain's position and its last-level row.
    """
    mine = [(k, owner, order) for k, (owner, order) in enumerate(chains) if lo <= owner < hi]
    row = {(owner, ()): owner - lo for _, owner, _ in mine}
    steps = []
    for t in range(len(chains[0][1])):
        groups = collections.defaultdict(dict)
        for _, owner, order in mine:
            groups[order[t] - t][(owner, order[: t + 1])] = (row[(owner, order[:t])], order[t])
        step, row = [], {}
        for axis, members in sorted(groups.items()):
            states = sorted(members, key=members.get)
            parents, players = zip(*map(members.get, states))
            perm = (0, *(a for a in range(1, len(counts) - t + 1) if a != axis + 1), axis + 1)
            stop = len(row) + len(states)
            step.append((np.array(parents), perm, np.array(players), len(row), stop))
            row.update(zip(states, range(len(row), stop)))
        steps.append((len(row), tuple(step)))
    ks, rows = zip(*((k, row[(owner, order)]) for k, owner, order in mine))
    return lo, hi, tuple(steps), np.array(ks), np.array(rows)


@functools.cache
def _chain_plan(counts, chains, budget):
    return [_chunk_plan(counts, chains, lo, hi) for lo, hi in _owner_chunks(counts, chains, budget)]


def _contract_chains(game, profile, chains):
    """Every chain (owner, contracted players) of a GameTensor at once: the
    owner's payoff tensor contracted with x_p for each contracted p, other axes
    in player order. One (len(chains), m, ..., m) array when every player has
    m actions; otherwise, or for no chains, the list of np.tensordot chains.

    Each contraction is the one np.tensordot makes on a single chain: the
    contracted axis moved last, the tensor reshaped C-ordered to (rows, m),
    and one gemv with x_p. A batched matmul runs that same gemv on every
    chain of a group, so the results equal per-chain tensordot chains bit for
    bit; chains that share their first contractions share those results.
    """
    counts = tuple(game.action_counts)
    if not chains or len(set(counts)) > 1:
        return [_tensordot_chain(game.payoffs[owner], profile, order) for owner, order in chains]
    m = counts[0]
    columns = stack_rows(profile)[:, :, None]
    out = np.empty((len(chains), *(m,) * (len(counts) - len(chains[0][1]))))
    for lo, hi, steps, ks, rows in _chain_plan(counts, chains, DESK_SCALE_ENTRIES):
        state = game.payoffs[lo:hi]
        for size, step in steps:
            level = np.empty((size, *state.shape[2:]))
            for parents, perm, players, start, stop in step:
                moved = state[parents].transpose(perm).reshape(stop - start, -1, m)
                target = level[start:stop].reshape(stop - start, -1, 1)
                np.matmul(moved, columns[players], out=target)
            state = level
        out[ks] = state[rows]
    return out


def _tensordot_chain(tensor, profile, order):
    """`tensor` contracted with profile[p] for each p of `order`, ascending,
    one np.tensordot each."""
    for removed, p in enumerate(order):
        tensor = np.tensordot(tensor, profile[p], axes=([p - removed], [0]))
    return tensor


def expected_utility(game, x, player):
    """Exact expected utility u_i(x) by full enumeration over outcomes."""
    player = validate_integer("player", player, 0, game.players)
    profile = as_profile(x, game.action_counts)
    if isinstance(game, SymmetricGame):
        grad = _symmetric_deviation_payoffs(game, profile, player)
        return float(np.dot(profile[player], grad))
    (value,) = _contract_chains(game, profile, (_chain(player, (), game.players),))
    return float(value)


def payoff_gradient(game, x, player):
    """Expected payoff of each of `player`'s actions against x_{-i}.

    Component a equals E_{x_-i}[u_i(a, x_-i)], so u_i(x) = x_i . gradient.
    """
    player = validate_integer("player", player, 0, game.players)
    profile = as_profile(x, game.action_counts)
    if isinstance(game, SymmetricGame):
        return _symmetric_deviation_payoffs(game, profile, player)
    (grad,) = _contract_chains(game, profile, (_chain(player, (player,), game.players),))
    return grad


def payoff_gradients(game, x):
    """Every player's payoff_gradient, in player order; on a GameTensor in
    one batched contraction, an (n, m) array (a list when action counts differ)."""
    profile = as_profile(x, game.action_counts)
    if isinstance(game, SymmetricGame):
        return [_symmetric_deviation_payoffs(game, profile, i) for i in range(game.players)]
    chains = tuple(_chain(i, (i,), game.players) for i in range(game.players))
    return _contract_chains(game, profile, chains)


@functools.cache
def _pair_chains(players, pairs):
    """The chain of each ordered pair's block; one tuple per call shape."""
    return tuple(_chain(i, (i, j), players) for i, j in pairs)


def _pair_blocks(game, x, pairs):
    """Exact blocks of the ordered pairs (i, j), in one batched contraction,
    each with the lower-numbered player's actions on the rows: H[i][j] when
    i < j, H[i][j].T when j < i."""
    if isinstance(game, SymmetricGame):
        raise TypeError(
            "pairwise blocks on compressed symmetric games come from "
            "SymmetricGame.pair_payoff_matrix; expand_to_tensor for the general op"
        )
    profile = as_profile(x, game.action_counts)
    return _contract_chains(game, profile, _pair_chains(game.players, pairs))


def pairwise_jacobian_exact(game, x, owner, partner):
    """The bimatrix block H[r, c] = E_{x_-ij}[u_owner(r, c, x_-ij)].

    Rows index the owner's actions, columns the partner's. For any partner j,
    H @ x_j reproduces the owner's payoff gradient.
    """
    owner = validate_integer("owner", owner, 0, game.players)
    partner = validate_integer("partner", partner, 0, game.players)
    if owner == partner:
        raise ValueError("pairwise block needs two distinct players")
    (block,) = _pair_blocks(game, x, ((owner, partner),))
    return block.T if partner < owner else block


@functools.cache
def ordered_pairs(players):
    """Owner and partner of every ordered pair of distinct players, in
    itertools.permutations order (by owner, then partner), as int arrays."""
    pairs = np.array(list(itertools.permutations(range(players), 2)), dtype=np.int64)
    pairs = pairs.reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


@functools.cache
def _pair_index(players):
    """Ordered pair (i, j) -> its index in `ordered_pairs`."""
    return {pair: p for p, pair in enumerate(itertools.permutations(range(players), 2))}


@functools.cache
def _into_player(players):
    """(n, n - 1) pair indices: row i lists the pairs (j, i) over partners j
    in ascending order."""
    out = np.empty((players, players - 1), dtype=np.int64)
    for i in range(players):
        out[i] = [j * (players - 1) + (i if i < j else i - 1) for j in range(players) if j != i]
    return out


@functools.cache
def _orientations(flags):
    """(pair indices, transposed) of each orientation a bool pattern (as
    bytes) holds."""
    flip = np.frombuffer(flags, dtype=bool)
    return tuple(
        (rows, turn)
        for rows, turn in ((np.flatnonzero(~flip), False), (np.flatnonzero(flip), True))
        if rows.size
    )


class PairwiseMatrices:
    """All ordered-pair blocks H[i][j] (m_i x m_j, payoffs to player i).

    Pair p runs over `ordered_pairs`. Block p is stored as read: H[i][j], or
    for a transposed pair its transpose, so that ``matrix(i, j)`` hands back
    the layout the reader made (an F-ordered view of a transposed pair).
    BLAS gives a C and an F block's products different last bits, so each
    product keeps its block's orientation. When every player has the same
    action count the blocks are one (P, m, m) stack, and every player's
    products are two batched matmuls, one per orientation; otherwise they
    are a list, multiplied pair by pair.
    """

    def __init__(self, raw, transposed, action_counts):
        """From P blocks in pair order, a (P, m, m) array or a list of arrays:
        block p is H[i][j].T where `transposed[p]`, else H[i][j]. A missing or
        misshapen block or flag raises ValueError naming the first such pair."""
        self.action_counts = counts = tuple(action_counts)
        self.players = len(counts)
        self._index = _pair_index(self.players)
        self._transposed = flags = np.array(transposed, dtype=bool).reshape(-1)
        size, square = len(self._index), len(set(counts)) == 1
        stacked = square and isinstance(raw, np.ndarray) and raw.shape == (size, *counts[:2])
        if not (stacked and flags.size == size):
            raw = list(raw)
            for p, (i, j) in enumerate(self._index):
                turn = p < flags.size and flags[p]
                want = (counts[j], counts[i]) if turn else (counts[i], counts[j])
                got = np.shape(raw[p]) if p < len(raw) else None
                if got != want or p >= flags.size:
                    raise ValueError(
                        f"pair ({i}, {j}) needs a block of shape {want} and a flag; got {got} "
                        f"among {len(raw)} blocks and {flags.size} flags"
                    )
            if len(raw) != size or flags.size != size:
                raise ValueError(f"{len(raw)} blocks and {flags.size} flags for {size} pairs")
        self._raw = raw

    @property
    def stack(self):
        """The (P, m, m) stack of stored blocks, or None when they are a list."""
        return self._raw if isinstance(self._raw, np.ndarray) else None

    def matrix(self, owner, partner):
        p = self._index.get((owner, partner))
        if p is None:
            raise ValueError(f"({owner}, {partner}) is not an ordered pair of distinct players")
        block = self._raw[p]
        return block.T if self._transposed[p] else block

    def pairs(self):
        return list(self._index)

    def _products(self, flip, vectors, which):
        """Row p: stored block p, transposed where `flip`, times
        vectors[which[p]]; one batched matmul per orientation, each item the
        bytes of one 2-d @."""
        out = np.empty((flip.size, vectors.shape[1]))
        for rows, turn in _orientations(flip.tobytes()):
            blocks = self._raw[rows]
            if turn:
                blocks = blocks.transpose(0, 2, 1)
            out[rows] = np.matmul(blocks, vectors[which[rows], :, None])[:, :, 0]
        return out

    def payoff_gradient(self, x):
        """Every player's average of H[i][j] @ x_j over partners j, the
        sampled-pipeline gradient, summed in ascending j: an (n, m) stack of
        rows when the blocks are stacked, else a list."""
        rows = stack_rows(x)
        n = self.players
        if self.stack is not None:
            owners, partners = ordered_pairs(n)
            terms = self._products(self._transposed, rows, partners).reshape(n, n - 1, -1)
            return sum(terms[:, k] for k in range(n - 1)) / (n - 1)
        return [
            sum(self.matrix(i, j) @ rows[j] for j in range(n) if j != i) / (n - 1)
            for i in range(n)
        ]

    def response_gradients(self, policy, effect):
        """-policy_i plus H[j][i].T @ effect_j over partners j in ascending
        order, for every player i: the deviation-incentive gradient from its
        response terms, stacked like `payoff_gradient`'s."""
        n = self.players
        if self.stack is not None and isinstance(effect, np.ndarray):
            owners, _ = ordered_pairs(n)
            # pair (j, i) carries H[j][i].T @ effect_j to player i
            cross = self._products(~self._transposed, effect, owners)[_into_player(n)]
            g = -policy
            for k in range(n - 1):
                g = g + cross[:, k]
            return g
        out = []
        for i in range(n):
            g = -policy[i]
            for j in range(n):
                if j != i:
                    g = g + self.matrix(j, i).T @ effect[j]
            out.append(g)
        return out


class SharedBlock:
    """The focal (m, m) block, rows the owner's actions, that every ordered
    pair of a symmetric game's n players shares. It answers the two products
    of `PairwiseMatrices` for one shared strategy, on one-row stacks: the
    partner view is the transpose, and n - 1 identical opponents add up."""

    def __init__(self, block, players):
        self.block, self.players = block, players

    def payoff_gradient(self, x):
        return (self.block @ x[0])[None]

    def response_gradients(self, policy, effect):
        return (-policy[0] + (self.players - 1) * (self.block.T @ effect[0]))[None]


def exact_pairwise_matrices(game, x):
    """All pairwise blocks computed by exact marginalization, in one batched
    contraction."""
    pairs = tuple(itertools.permutations(range(game.players), 2))
    blocks = _pair_blocks(game, x, pairs)
    return PairwiseMatrices(blocks, [j < i for i, j in pairs], game.action_counts)


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
