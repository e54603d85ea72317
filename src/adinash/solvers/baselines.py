"""Baseline dynamics the deviation-incentive solvers are compared against:
simultaneous gradient ascent (FTRL), regret matching, fictitious play,
exploitability descent, extragradient, and plain deviation-incentive descent.
"""

import time
from dataclasses import dataclass

import numpy as np

from ..adi import adi_exact, adi_gradient_shannon, symmetric_adi_exact
from ..entropy import Entropy, _hard_argmax
from ..exact import PairwiseMatrices, exact_pairwise_matrices, payoff_gradient
from ..normalform import GameTensor, StrategyProfile, SymmetricGame
from ..simplex import simplex_project_euclidean, tangent_project
from .base import BaseSolver, IterateLog, profile_hash

METHODS = ("ftrl", "rm", "fp", "ed", "extragrad", "ped")


@dataclass
class BaselineState:
    """Mutable per-method state; unused slots stay None."""

    profile: StrategyProfile
    t: int = 0
    cumulative_regret: list = None
    counts: list = None
    average: list = None
    inner_step: float = None

    @classmethod
    def initial(cls, action_counts):
        uniform = StrategyProfile.uniform(action_counts)
        return cls(
            profile=uniform,
            t=0,
            cumulative_regret=[np.zeros(m) for m in action_counts],
            counts=[np.zeros(m) for m in action_counts],
            average=[np.array(s) for s in uniform],
        )


def _gradients(source, profile):
    """Per-player payoff gradients from a game or from estimated blocks."""
    if isinstance(source, PairwiseMatrices):
        return [source.payoff_gradient(profile, i) for i in range(profile.players)]
    return [
        payoff_gradient(source, profile, i, validate=False)
        for i in range(profile.players)
    ]


def baseline_step(method, state, source, learning_rate):
    """One iteration of the named dynamic; returns the advanced state.

    `source` is a desk-scale game for exact play or a PairwiseMatrices bundle
    of estimates (ftrl / rm / fp / ped only; the best-response dynamics need
    the game itself to re-evaluate gradients at modified profiles).
    """
    if method not in METHODS:
        raise ValueError(f"unknown baseline {method!r}; choose from {METHODS}")
    x = state.profile
    n = x.players
    t = state.t + 1

    if method in ("ed", "extragrad") and isinstance(source, PairwiseMatrices):
        raise ValueError(f"{method} needs the game itself, not estimates")

    if method == "ftrl":
        grads = _gradients(source, x)
        new = [
            simplex_project_euclidean(x[i] + learning_rate * grads[i])
            for i in range(n)
        ]
    elif method == "rm":
        grads = _gradients(source, x)
        for i in range(n):
            state.cumulative_regret[i] += grads[i] - float(np.dot(x[i], grads[i]))
        new = []
        for i in range(n):
            positive = np.clip(state.cumulative_regret[i], 0.0, None)
            total = positive.sum()
            if total > 0.0:
                new.append(positive / total)
            else:
                new.append(np.full(x[i].size, 1.0 / x[i].size))
    elif method == "fp":
        empirical = []
        for i in range(n):
            c = state.counts[i]
            empirical.append(
                c / c.sum() if c.sum() > 0 else np.full(c.size, 1.0 / c.size)
            )
        emp_profile = StrategyProfile(empirical)
        grads = _gradients(source, emp_profile)
        for i in range(n):
            state.counts[i][int(np.argmax(grads[i]))] += 1.0
        new = [state.counts[i] / state.counts[i].sum() for i in range(n)]
    elif method == "ed":
        grads_now = _gradients(source, x)
        responses = StrategyProfile([_hard_argmax(g) for g in grads_now])
        ascent = _gradients(source, responses)
        new = [
            simplex_project_euclidean(x[i] + learning_rate * ascent[i])
            for i in range(n)
        ]
    elif method == "extragrad":
        inner = getattr(state, "inner_step", None)
        grads_now = _gradients(source, x)
        if inner is None or np.isinf(inner):
            midpoint = StrategyProfile([_hard_argmax(g) for g in grads_now])
        else:
            midpoint = StrategyProfile(
                [
                    simplex_project_euclidean(x[i] + inner * grads_now[i])
                    for i in range(n)
                ]
            )
        outer = _gradients(source, midpoint)
        new = [
            simplex_project_euclidean(x[i] + learning_rate * outer[i])
            for i in range(n)
        ]
    else:  # ped: descent on the zero-entropy deviation incentive
        if isinstance(source, PairwiseMatrices):
            matrices = source
        else:
            matrices = exact_pairwise_matrices(source, x, validate=False)
        grads = [matrices.payoff_gradient(x, i) for i in range(n)]
        descent = adi_gradient_shannon(matrices, grads, x, 0.0)
        new = [
            simplex_project_euclidean(x[i] - learning_rate * tangent_project(descent[i]))
            for i in range(n)
        ]

    state.profile = StrategyProfile(new)
    state.t = t
    state.average = [
        a + (s - a) / t for a, s in zip(state.average, state.profile)
    ]
    return state


@dataclass
class SymmetricBaselineState:
    """Single-strategy state for no-regret play on symmetric games."""

    strategy: np.ndarray
    t: int = 0
    cumulative_regret: np.ndarray = None
    counts: np.ndarray = None
    average: np.ndarray = None

    @classmethod
    def initial(cls, actions):
        return cls(
            strategy=np.full(actions, 1.0 / actions),
            t=0,
            cumulative_regret=np.zeros(actions),
            counts=np.zeros(actions),
            average=np.full(actions, 1.0 / actions),
        )


def symmetric_baseline_step(method, state, game, learning_rate):
    """Shared-strategy ftrl / rm / fp against a compressed symmetric game."""
    if method not in ("ftrl", "rm", "fp"):
        raise ValueError(f"{method!r} has no shared-strategy form here")
    x = state.strategy
    t = state.t + 1
    if method == "fp":
        c = state.counts
        empirical = c / c.sum() if c.sum() > 0 else np.full(x.size, 1.0 / x.size)
        grad = game.deviation_payoffs(empirical)
        state.counts[int(np.argmax(grad))] += 1.0
        state.strategy = state.counts / state.counts.sum()
    else:
        grad = game.deviation_payoffs(x)
        if method == "ftrl":
            state.strategy = simplex_project_euclidean(x + learning_rate * grad)
        else:
            state.cumulative_regret += grad - float(np.dot(x, grad))
            positive = np.clip(state.cumulative_regret, 0.0, None)
            total = positive.sum()
            state.strategy = (
                positive / total if total > 0.0 else np.full(x.size, 1.0 / x.size)
            )
    state.t = t
    state.average = state.average + (state.strategy - state.average) / t
    return state


class BaselineSolver(BaseSolver):
    """Estimator wrapper around the baseline steps with exact-ADI logging.

    `report="average"` evaluates and returns the running iterate average (the
    convergence object for rm / fp); `"last"` uses the final iterate.
    `symmetric=True` runs the shared-strategy form on a SymmetricGame, the
    mode used when a symmetric equilibrium is required.
    """

    def __init__(
        self,
        method="rm",
        learning_rate=0.05,
        iterations=1000,
        inner_step=None,
        report=None,
        symmetric=False,
        exact_adi_every=None,
        seed=0,
        run_id=None,
    ):
        self.method = method
        self.learning_rate = learning_rate
        self.iterations = iterations
        self.inner_step = inner_step
        self.report = report
        self.symmetric = symmetric
        self.exact_adi_every = exact_adi_every
        self.seed = seed
        self.run_id = run_id

    def fit(self, game):
        if not isinstance(game, (GameTensor, SymmetricGame)):
            raise TypeError("baselines run on desk-scale games")
        report = self.report or ("average" if self.method in ("rm", "fp") else "last")
        cadence = (
            int(self.exact_adi_every)
            if self.exact_adi_every is not None
            else max(1, int(self.iterations) // 100)
        )
        log = IterateLog(self.run_id or f"{self.method}-{self.seed}", self.seed)
        started = time.perf_counter()

        if self.symmetric:
            if not isinstance(game, SymmetricGame):
                raise ValueError("symmetric baselines need a SymmetricGame")
            state = SymmetricBaselineState.initial(game.actions)
            for t in range(1, int(self.iterations) + 1):
                state = symmetric_baseline_step(
                    self.method, state, game, self.learning_rate
                )
                tracked = state.average if report == "average" else state.strategy
                if cadence and (t % cadence == 0 or t == int(self.iterations)):
                    exact = symmetric_adi_exact(game, tracked)
                    log.append(
                        iteration=t,
                        adi_estimate=exact,
                        adi_exact=exact,
                        temperature=0.0,
                        queries=0,
                        profile_digest=profile_hash([tracked]),
                        wall_ms=(time.perf_counter() - started) * 1000.0,
                    )
            self.state_ = state
            self.strategy_ = np.array(
                state.average if report == "average" else state.strategy
            )
            self.profile_ = StrategyProfile([self.strategy_] * game.players)
            self.log_ = log
            return self

        dense = game.expand_to_tensor() if isinstance(game, SymmetricGame) else game
        state = BaselineState.initial(dense.action_counts)
        state.inner_step = self.inner_step
        for t in range(1, int(self.iterations) + 1):
            state = baseline_step(self.method, state, dense, self.learning_rate)
            tracked = state.average if report == "average" else list(state.profile)
            if cadence and (t % cadence == 0 or t == int(self.iterations)):
                exact = adi_exact(dense, StrategyProfile(tracked), Entropy.none()).total
                log.append(
                    iteration=t,
                    adi_estimate=exact,
                    adi_exact=exact,
                    temperature=0.0,
                    queries=0,
                    profile_digest=profile_hash(tracked),
                    wall_ms=(time.perf_counter() - started) * 1000.0,
                )
        self.state_ = state
        self.profile_ = StrategyProfile(
            state.average if report == "average" else list(state.profile)
        )
        self.log_ = log
        return self

    def solve(self, game):
        self.fit(game)
        return self.profile_, self.log_
