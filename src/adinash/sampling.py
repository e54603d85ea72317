"""Monte-Carlo estimation of the pairwise blocks from joint play, and the
auxiliary-variable machinery that amortizes those estimates over iterations."""

import functools
from dataclasses import dataclass

import numpy as np

from .exact import PairwiseMatrices, ordered_pairs
from .normalform import as_profile, validate_integer
from .oracles import SymmetricOracle, TensorOracle
from .simplex import map_rows, stack_rows


@dataclass
class AuxiliaryState:
    """Exponentially averaged payoff-gradient estimates, one per player: an
    (n, m) stack of rows when every player has the same action count."""

    y: list
    t: int = 1

    @classmethod
    def zeros(cls, action_counts):
        return cls(stack_rows([np.zeros(m) for m in action_counts]), t=1)


def new_rng(seed):
    """The project-wide counter-based generator (64-bit Philox key)."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _inverse_cdf(strategy, uniforms):
    """The action each uniform draw picks from `strategy`, as an int array."""
    cum = np.cumsum(strategy)
    draws = np.searchsorted(cum, uniforms, side="right")
    return np.minimum(draws, cum.size - 1)


def sample_actions(strategy, rng, count=1):
    """`count` independent draws from one strategy, by inverse CDF, as an
    int array; one vector draw of `count` uniforms, the doubles of `count`
    single calls."""
    return _inverse_cdf(strategy, rng.random(count))


def sample_joint_action(x, rng, samples=1):
    """A (samples, n) int array of joint actions, one independent
    categorical draw per player each, drawn one after another from one
    vector draw: the doubles of `samples` single draws."""
    samples = validate_integer("samples", samples, 1)
    profile = as_profile(x)
    n = profile.players
    uniforms = rng.random(n * samples).reshape(samples, n)
    return np.column_stack([_inverse_cdf(s, uniforms[:, i]) for i, s in enumerate(profile)])


def sample_mean(stack):
    """The entrywise mean of a stack of sampled blocks over its first axis,
    added in sample order from 0.0; the one block mean of both solvers."""
    return np.add.reduce(stack, axis=0, initial=0.0) / len(stack)


@functools.cache
def _rests(players):
    """(P, n - 2) columns of the players outside each ordered pair."""
    pairs = zip(*ordered_pairs(players))
    rests = [[k for k in range(players) if k not in pair] for pair in pairs]
    return np.array(rests, dtype=np.int64).reshape(players * (players - 1), players - 2)


def estimate_pairwise_matrices(oracle, joints):
    """Fill every ordered pair's block by substituting (r, c) into sampled
    joint actions, each block the sample_mean of its fills; the query
    counter advances by sum_{i != j} m_i * m_j per joint action.

    `joints` is an (S, n) int array of joint actions within the action
    counts. The per-pair reads of the oracle's own class run as one call:
    `SymmetricOracle.pair_payoffs` as one symmetric_pair_payoffs over every
    pair's rest, `TensorOracle.pair_payoffs` on one action count as one
    gather. Any other oracle (a subclass that overrides pair_payoffs, or one
    with different action counts) is read pair by pair, joint-major, each
    pair in the orientation of its first read. Oracle failures name the
    joint actions of the failed read and, read pair by pair, the pair.
    """
    counts = oracle.action_counts
    joints, n = np.asarray(joints), oracle.players
    if (
        joints.ndim != 2
        or not joints.size
        or joints.shape[1] != n
        or joints.dtype.kind not in "iu"
        or np.any((joints < 0) | (joints >= counts))
    ):
        raise ValueError(f"joint actions must be an (S >= 1, {n}) int array within {counts}")
    samples = len(joints)
    owners, partners = ordered_pairs(n)
    read = type(oracle).pair_payoffs
    try:
        if read is SymmetricOracle.pair_payoffs:
            rests = joints[:, _rests(n)].reshape(samples * owners.size, n - 2)
            blocks = oracle.symmetric_pair_payoffs(rests)
            transposed = np.zeros(owners.size, dtype=bool)
        elif read is TensorOracle.pair_payoffs and len(set(counts)) == 1:
            blocks = oracle.pair_payoffs(owners, partners, joints)
            transposed = partners < owners
        else:
            blocks = None
    except Exception as err:
        raise RuntimeError(f"oracle failed on the blocks of joints {joints.tolist()}") from err
    if blocks is not None:
        blocks = blocks.reshape(samples, owners.size, *blocks.shape[-2:])
        return PairwiseMatrices(sample_mean(blocks), transposed, counts)
    reads = [[] for _ in range(owners.size)]
    for joint in map(tuple, joints.tolist()):
        for pair, i, j in zip(reads, owners.tolist(), partners.tolist()):
            try:
                pair.append(oracle.pair_payoffs(i, j, joint))
            except Exception as err:
                raise RuntimeError(f"oracle failed on pair ({i}, {j}) at joint {joint}") from err
    transposed = [r[0].flags.f_contiguous and not r[0].flags.c_contiguous for r in reads]
    raw = [sample_mean(np.stack([b.T if t else b for b in r])) for r, t in zip(reads, transposed)]
    return PairwiseMatrices(raw, transposed, counts)


def update_aux(state, grad_estimates, aux_learning_rate):
    """Track the payoff gradient: y <- y - alpha (y - grad), alpha = max(1/t, lr).

    A convex combination toward the fresh estimate; at t = 1 it copies the
    estimate outright. Returns the advanced state.
    """
    alpha = max(1.0 / state.t, float(aux_learning_rate))
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"step weight {alpha} outside (0, 1]")
    new_y = map_rows(
        lambda y, g: y - alpha * (y - g), stack_rows(state.y), stack_rows(grad_estimates)
    )
    return AuxiliaryState(new_y, state.t + 1)
