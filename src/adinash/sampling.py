"""Monte-Carlo estimation of the pairwise blocks from joint play, and the
auxiliary-variable machinery that amortizes those estimates over iterations."""

from dataclasses import dataclass

import numpy as np

from .exact import PairwiseMatrices
from .normalform import as_profile


@dataclass
class AuxiliaryState:
    """Exponentially averaged payoff-gradient estimates, one per player."""

    y: list
    t: int = 1

    @classmethod
    def zeros(cls, action_counts):
        return cls([np.zeros(m) for m in action_counts], t=1)


def new_rng(seed):
    """The project-wide counter-based generator (64-bit Philox key)."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def sample_actions(strategy, rng, count=1):
    """`count` independent draws from one strategy, by inverse CDF, as an
    int array; one vector draw of `count` uniforms, the doubles of `count`
    single calls."""
    cum = np.cumsum(strategy)
    draws = np.searchsorted(cum, rng.random(count), side="right")
    return np.minimum(draws, cum.size - 1)


def sample_joint_action(x, rng):
    """One independent categorical draw per player."""
    return tuple(int(sample_actions(strategy, rng)[0]) for strategy in as_profile(x))


def estimate_pairwise_matrices(oracle, joint_action):
    """Fill every ordered pair's block by substituting (r, c) into the sample.

    All pairs reuse the same joint action; the query counter advances by
    sum_{i != j} m_i * m_j. Oracle failures surface with the offending pair
    attached.
    """
    n = oracle.players
    blocks = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            try:
                blocks[(i, j)] = oracle.pair_payoffs(i, j, joint_action)
            except Exception as err:
                raise RuntimeError(
                    f"oracle failed on pair ({i}, {j}) at joint {tuple(joint_action)}"
                ) from err
    return PairwiseMatrices(blocks, oracle.action_counts)


def update_aux(state, grad_estimates, aux_learning_rate):
    """Track the payoff gradient: y <- y - alpha (y - grad), alpha = max(1/t, lr).

    A convex combination toward the fresh estimate; at t = 1 it copies the
    estimate outright. Returns the advanced state.
    """
    alpha = max(1.0 / state.t, float(aux_learning_rate))
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"step weight {alpha} outside (0, 1]")
    new_y = [
        y - alpha * (y - np.asarray(g, dtype=float))
        for y, g in zip(state.y, grad_estimates)
    ]
    return AuxiliaryState(new_y, state.t + 1)
