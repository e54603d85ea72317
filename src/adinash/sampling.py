"""Monte-Carlo estimation of the pairwise blocks from joint play, and the
auxiliary-variable machinery that amortizes those estimates over iterations."""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .exact import PairwiseMatrices, ordered_pairs
from .normalform import as_profile, validate_joint_action
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


def sample_joint_action(x, rng, samples=None):
    """One independent categorical draw per player, as a tuple of ints; with
    `samples`, a (samples, n) int array of joint actions drawn one after
    another, from one vector draw: the doubles of `samples` single calls."""
    profile = as_profile(x)
    n = profile.players
    uniforms = rng.random(n * (1 if samples is None else samples)).reshape(-1, n)
    joints = np.column_stack([_inverse_cdf(s, uniforms[:, i]) for i, s in enumerate(profile)])
    return tuple(int(a) for a in joints[0]) if samples is None else joints


def sample_mean(stack):
    """The entrywise mean of a stack of sampled blocks over its first axis,
    added in sample order from 0.0; the one block mean of both solvers."""
    return np.add.reduce(stack, axis=0, initial=0.0) / len(stack)


def _fill(oracle, joint):
    """{pair: block} read one pair at a time at one joint action."""
    blocks = {}
    for i, j in itertools.permutations(range(oracle.players), 2):
        try:
            blocks[(i, j)] = oracle.pair_payoffs(i, j, joint)
        except Exception as err:
            raise RuntimeError(
                f"oracle failed on pair ({i}, {j}) at joint {tuple(joint)}"
            ) from err
    return blocks


@functools.cache
def _rests(players):
    """(P, n - 2) columns of the players outside each ordered pair."""
    pairs = list(itertools.permutations(range(players), 2))
    rests = [[k for k in range(players) if k not in pair] for pair in pairs]
    return np.array(rests, dtype=np.int64).reshape(len(pairs), players - 2)


def estimate_pairwise_matrices(oracle, joint_action):
    """Fill every ordered pair's block by substituting (r, c) into sampled
    joint actions, each block the sample_mean of its fills; the query
    counter advances by sum_{i != j} m_i * m_j per joint action.

    `joint_action` is one joint action (checked by validate_joint_action) or
    an (S, n) int array of them, checked against the action counts. The per-pair reads of the oracle's
    own class run as one call: `SymmetricOracle.pair_payoffs` as one
    symmetric_pair_payoffs over every pair's rest, `TensorOracle.pair_payoffs`
    on one action count as one gather. Any other oracle (a subclass that
    overrides pair_payoffs, or one with different action counts) is read
    pair by pair. Oracle failures surface with the joint actions of the
    failed read attached, and, read pair by pair, the offending pair.
    """
    counts = oracle.action_counts
    joints = np.asarray(joint_action)
    if joints.ndim == 1:
        # one joint action, checked as a single pair read checks it
        joints = np.array([validate_joint_action(joint_action, counts)])
    n, samples = oracle.players, joints.shape[0] if joints.ndim else 0
    if (
        joints.ndim != 2
        or samples < 1
        or joints.shape[1] != n
        or joints.dtype.kind not in "iu"
        or np.any((joints < 0) | (joints >= counts))
    ):
        raise ValueError(f"joint actions must be an (S >= 1, {n}) int array within {counts}")
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
        return PairwiseMatrices.from_stored(sample_mean(blocks), transposed, counts)
    fills = [
        PairwiseMatrices(_fill(oracle, tuple(joint)), counts).stored() for joint in joints.tolist()
    ]
    raw = [sample_mean(np.stack([stored[p] for stored, _ in fills])) for p in range(owners.size)]
    return PairwiseMatrices.from_stored(raw, fills[0][1], counts)


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
