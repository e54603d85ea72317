import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from adinash.entropy import best_response
from adinash.normalform import GameTensor, StrategyProfile, SymmetricGame, multiset_count
from adinash.simplex import stack_rows

# CI draws the same examples on every run, so a property failure there
# replays locally with CI=1
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def biased_game():
    """2-player game where best-responding to sampled columns is biased:
    row player's true best action is never a best response to a pure sample."""
    u1 = np.array([[0.0, 0.0], [1.0, -2.0], [-2.0, 1.0]])
    u2 = np.zeros((3, 2))
    return GameTensor.from_player_tensors([u1, u2])


@pytest.fixture
def matching_pennies():
    u1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return GameTensor.from_player_tensors([u1, -u1])


def random_game(rng, players=None, max_actions=4, low=-1.0, high=1.0):
    n = players if players is not None else int(rng.integers(2, 4))
    counts = rng.integers(2, max_actions + 1, size=n)
    payoffs = rng.uniform(low, high, size=(n, *counts))
    return GameTensor(payoffs)


def random_profile(rng, game, concentration=3.0):
    return StrategyProfile(
        [rng.dirichlet(np.full(m, concentration)) for m in game.action_counts]
    )


def best_responses(grads, kind):
    """The responses `adi_gradient` takes: `best_response` of a stack, else
    one per row of a per-player list."""
    rows = stack_rows(grads)
    if isinstance(rows, np.ndarray):
        return best_response(rows, kind)
    return [best_response(g, kind) for g in rows]


def finite_difference_adi_gradient(game, profile, kind, player, h):
    """Central differences of the exact deviation incentive of a GameTensor,
    one player. The perturbed profiles leave the simplex, where adi_exact
    refuses them, so the multilinear extension is evaluated directly: the
    library's payoff-gradient contractions and its gain loop."""
    from adinash import adi, exact

    chains = tuple(exact._chain(i, (i,), game.players) for i in range(game.players))
    m = profile[player].size
    out = np.zeros(m)
    for a in range(m):
        values = []
        for sign in (1.0, -1.0):
            pert = [np.array(s) for s in profile]
            pert[player][a] += sign * h
            grads = exact._contract_chains(game, pert, chains)
            values.append(adi._gains(pert, grads, kind).total)
        out[a] = (values[0] - values[1]) / (2.0 * h)
    return out


@st.composite
def symmetric_games(draw):
    """Small random games, 2-4 players and 1-4 actions, with one independent
    payoff in [-1, 1] per (own action, opponent multiset)."""
    players = draw(st.integers(2, 4))
    actions = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (actions, multiset_count(actions, players - 1))
    return SymmetricGame(players, actions, rng.uniform(-1, 1, size=shape))
