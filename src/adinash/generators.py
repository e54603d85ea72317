"""Benchmark game generators: Colonel Blotto, the El Farol bar stage game, a
modified Shapley's bimatrix, covariant random games, and Bernoulli meta-games."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .normalform import GameTensor, SymmetricGame, multiset_count, validate_integer
from .oracles import BernoulliOracle
from .sampling import new_rng


@dataclass(frozen=True)
class BlottoSpec:
    coins: int = 10
    fields: int = 3
    players: int = 4

    def __post_init__(self):
        if self.coins < 1 or self.fields < 2 or self.players < 2:
            raise ValueError("need coins >= 1, fields >= 2, players >= 2")

    @property
    def action_count(self):
        return math.comb(self.coins + self.fields - 1, self.fields - 1)


def blotto_allocations(coins, fields):
    """All ways to split `coins` over `fields`, lexicographic, as an array:
    the gaps between sorted cut points in [0, coins], whose lexicographic
    order is the allocations' own."""
    cuts = itertools.combinations_with_replacement(range(coins + 1), fields - 1)
    cuts = np.array(list(cuts), dtype=np.int64)
    return np.diff(cuts, prepend=0, append=coins, axis=1)


def make_blotto(spec=BlottoSpec()):
    """Colonel Blotto over coin allocations; net fields won, ties split evenly.

    A payoff is the mean over fields of +1 for a field won, -1 for a field
    lost and 2 / (1 + t) - 1 for a field tied with t opponents, added in
    field order. Returns the multiset-compressed symmetric game;
    `expand_to_tensor` gives the dense tensor at desk scale.
    """
    m = spec.action_count
    # the stored table: one row per allocation, one column per opponent multiset
    entries = m * multiset_count(m, spec.players - 1)
    if entries > 400_000_000:
        raise ValueError(f"{spec} needs {entries} table entries, over the 400000000 budget")
    actions = blotto_allocations(spec.coins, spec.fields)
    # a field's outcome is a code: 0 lost, 1 won, 1 + t tied with t
    # opponents, so a code can reach `players`; scores[code] is its payoff
    code_type = np.min_scalar_type(spec.players)
    ties = np.arange(1, spec.players)
    scores = np.concatenate([[-1.0, 1.0], 2.0 * (1.0 / (1.0 + ties)) - 1.0])
    held = np.arange(spec.coins + 1)[:, None]

    # the outcome codes depend only on the opponents; from_batch_function
    # passes the same array for every own action, so the last array's codes
    # are kept, keyed by identity
    memo = {"opponents": None}

    def outcome_codes(opponents):
        """codes[f, v, j]: the outcome of v coins in field f against the
        opponents of row j."""
        if memo["opponents"] is not opponents:
            codes = np.empty((spec.fields, spec.coins + 1, len(opponents)), dtype=code_type)
            for f in range(spec.fields):
                field = actions[:, f][opponents]  # (N, n-1)
                top = field.max(axis=1)
                tied = (field == top[:, None]).sum(axis=1, dtype=code_type)
                codes[f] = np.where(held == top, 1 + tied, held > top)
            memo.update(opponents=opponents, codes=codes)
        return memo["codes"]

    def batch_payoff(own, opponents):
        codes = outcome_codes(opponents)
        # the field scores added in field order, then divided by the fields
        total = scores[codes[0, actions[own, 0]]]
        for f in range(1, spec.fields):
            total += scores[codes[f, actions[own, f]]]
        total /= spec.fields
        return total

    return SymmetricGame.from_batch_function(spec.players, m, batch_payoff)


@dataclass(frozen=True)
class ElFarolSpec:
    players: int = 10
    crowding: float = 0.7  # capacity fraction c; the bar fits players * c
    stay_payoff: float = 1.0
    good_night: float = 2.0
    bad_night: float = 0.0

    def __post_init__(self):
        validate_integer("players", self.players, 2)
        if not np.isfinite(self.crowding):
            raise ValueError(f"crowding must be finite, got {self.crowding!r}")
        if not self.bad_night < self.stay_payoff < self.good_night:
            raise ValueError("need bad < stay < good payoffs")

    @property
    def capacity(self):
        return self.players * self.crowding


GO, STAY = 0, 1


def make_el_farol(spec=ElFarolSpec()):
    """The 2-action bar-attendance stage game: going pays off iff the bar
    (including you) stays within capacity; staying home is the safe payoff."""

    def payoff(own, opponents):
        attendance = 1 + (opponents == GO).sum(axis=1)
        going = np.where(attendance <= spec.capacity, spec.good_night, spec.bad_night)
        return np.where(own == STAY, spec.stay_payoff, going)

    return SymmetricGame.from_batch_function(spec.players, 2, payoff)


def make_modified_shapley(beta=0.5, offset=False):
    """The 3-action bimatrix whose unique Nash sits at uniform.

    `offset` shifts both payoff matrices up by beta so the minimum payoff is 0
    (needed by the Tsallis solvers).
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    a = np.array([[1.0, 0.0, beta], [beta, 1.0, 0.0], [0.0, beta, 1.0]])
    b = np.array([[-beta, 1.0, 0.0], [0.0, -beta, 1.0], [1.0, 0.0, -beta]])
    if offset:
        a = a + beta
        b = b + beta
    return GameTensor.from_player_tensors([a, b])


def make_covariant_random(players, actions, correlation, seed=0):
    """Random game with N(0, 1) payoffs correlated `correlation` across players
    at every outcome. Deterministic in the seed (Philox stream)."""
    n = validate_integer("players", players, 2)
    actions = validate_integer("actions", actions, 1)
    low = -1.0 / (n - 1)
    if not low <= correlation <= 1.0:
        raise ValueError(f"correlation must lie in [{low}, 1]")
    cov = np.full((n, n), float(correlation))
    np.fill_diagonal(cov, 1.0)
    # eigendecomposition keeps the boundary cases (rho = 1, rho = -1/(n-1)) PSD
    eigvals, eigvecs = np.linalg.eigh(cov)
    root = eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None)))
    rng = new_rng(seed)
    outcomes = int(np.prod([actions] * n))
    z = rng.standard_normal((outcomes, n))
    values = z @ root.T
    payoffs = np.moveaxis(values.reshape((*([actions] * n), n)), -1, 0)
    return GameTensor(payoffs)


def make_bernoulli_metagame(winrates, seed=0):
    """Stochastic oracle over a symmetric winrate table: every payoff query is
    a fresh Bernoulli draw of the queried entry."""
    return BernoulliOracle(winrates, seed=seed)


def planted_winrates(players, actions, seed=0):
    """A synthetic symmetric winrate table with a graded quality per action.

    Winrate of playing `a` in a multiset is the softmax share of its quality
    (sorted uniform draws on [0, 2)) against the opponents', scaled into
    [0, 1]; entries sum to 1 per multiset like an empirical win probability.
    """
    rng = new_rng(seed)
    quality = np.sort(rng.random(actions)) * 2.0

    def winrate(own, opponents):
        qs = quality[np.column_stack([np.full(len(opponents), own), opponents])]
        shares = np.exp(qs - qs.max(axis=1, keepdims=True))
        return shares[:, 0] / shares.sum(axis=1)

    return SymmetricGame.from_batch_function(players, actions, winrate)

