"""Baseline dynamics the deviation-incentive solvers are compared against:
simultaneous gradient ascent (FTRL), regret matching, fictitious play,
exploitability descent, extragradient, and plain deviation-incentive descent.
"""

import time
from dataclasses import dataclass

import numpy as np

from ..adi import adi_exact, symmetric_adi_exact
from ..entropy import Entropy, _hard_argmax
from ..exact import PairwiseMatrices, exact_pairwise_matrices, payoff_gradients
from ..normalform import GameTensor, StrategyProfile, SymmetricGame, validate_integer
from .adidas import blocks_gradient, descent_step
from .base import BaseSolver, IterateLog, profile_hash

METHODS = ("ftrl", "rm", "fp", "ed", "extragrad", "ped")
SHARED_METHODS = ("ftrl", "rm", "fp")


@dataclass
class BaselineState:
    """Mutable per-method state; unused slots stay None.

    `profile` holds one strategy per player, or, for the shared-strategy form
    on a SymmetricGame, a one-element list holding the strategy every player
    shares.
    """

    profile: StrategyProfile
    t: int = 0
    cumulative_regret: list = None
    counts: list = None
    average: list = None
    inner_step: float = None

    @classmethod
    def initial(cls, action_counts, wrap=StrategyProfile):
        """Uniform start; `wrap=list` keeps the strategies as built (a
        StrategyProfile renormalizes them), as the shared form does."""
        profile = wrap([np.full(m, 1.0 / m) for m in action_counts])
        return cls(
            profile=profile,
            t=0,
            cumulative_regret=[np.zeros(m) for m in action_counts],
            counts=[np.zeros(m) for m in action_counts],
            average=[np.array(s) for s in profile],
        )


def _gradients(source, profile):
    """Per-player payoff gradients from a game or from estimated blocks; one
    gradient for a strategy shared by every player of a SymmetricGame."""
    n = len(profile)
    if isinstance(source, PairwiseMatrices):
        return source.payoff_gradients(profile)
    if n < source.players:
        return [source.deviation_payoffs(profile[0])]
    return payoff_gradients(source, profile, validate=False)


def baseline_step(method, state, source, learning_rate):
    """One iteration of the named dynamic; returns the advanced state.

    `source` is a desk-scale game for exact play or a PairwiseMatrices bundle
    of estimates (ftrl / rm / fp / ped only; the best-response dynamics need
    the game itself to re-evaluate gradients at modified profiles). A state
    with fewer strategies than `source` has players is the shared-strategy
    form: ftrl / rm / fp on a SymmetricGame.
    """
    if method not in METHODS:
        raise ValueError(f"unknown baseline {method!r}; choose from {METHODS}")
    x = state.profile
    n = len(x)
    t = state.t + 1
    # StrategyProfile renormalizes, which would change a shared strategy's bytes
    wrap = StrategyProfile
    if n < source.players:
        if method not in SHARED_METHODS:
            raise ValueError(f"{method!r} has no shared-strategy form here")
        if not isinstance(source, SymmetricGame):
            raise ValueError("the shared-strategy form needs a SymmetricGame")
        wrap = list

    if method in ("ed", "extragrad") and isinstance(source, PairwiseMatrices):
        raise ValueError(f"{method} needs the game itself, not estimates")

    if method in ("ftrl", "ed", "extragrad"):
        # ascent from x along the gradient at a midpoint: x itself (ftrl), the
        # best response (ed; extragrad without a finite inner step), or one
        # inner ascent step (extragrad)
        grads = _gradients(source, x)
        if method != "ftrl":
            inner = state.inner_step
            if method == "ed" or inner is None or np.isinf(inner):
                midpoint = [_hard_argmax(g) for g in grads]
            else:
                midpoint = descent_step(x, [-g for g in grads], inner, tangent=False)
            grads = _gradients(source, StrategyProfile(midpoint))
        new = descent_step(x, [-g for g in grads], learning_rate, tangent=False)
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
        grads = _gradients(source, wrap(empirical))
        for i in range(n):
            state.counts[i][int(np.argmax(grads[i]))] += 1.0
        new = [state.counts[i] / state.counts[i].sum() for i in range(n)]
    else:  # ped: descent on the zero-entropy deviation incentive
        if isinstance(source, PairwiseMatrices):
            matrices = source
        else:
            matrices = exact_pairwise_matrices(source, x, validate=False)
        new = descent_step(x, blocks_gradient(matrices, x, Entropy.none()), learning_rate)

    state.profile = wrap(new)
    state.t = t
    state.average = [
        a + (s - a) / t for a, s in zip(state.average, state.profile)
    ]
    return state


class BaselineSolver(BaseSolver):
    """Estimator wrapper around the baseline steps with exact-ADI logging.

    `report="average"` evaluates and returns the running iterate average (the
    convergence object for rm / fp); `"last"` uses the final iterate; None
    picks "average" for rm / fp and "last" otherwise. `symmetric=True` runs
    the shared-strategy form of ftrl / rm / fp on a SymmetricGame, the mode
    used when a symmetric equilibrium is required.
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

    def _validate(self):
        """Reject bad hyperparameters, NaN and inf included, naming each."""
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.report not in (None, "average", "last"):
            raise ValueError(f"report must be None, 'average' or 'last', got {self.report!r}")
        validate_integer("iterations", self.iterations, 1)
        rate = self.learning_rate
        if not (np.isfinite(rate) and rate > 0.0):
            raise ValueError(f"learning_rate must be positive and finite, got {rate!r}")
        inner = self.inner_step
        if not (inner is None or inner == np.inf or (np.isfinite(inner) and inner > 0.0)):
            raise ValueError(f"inner_step must be None, inf or positive and finite, got {inner!r}")
        if self.exact_adi_every is not None:
            validate_integer("exact_adi_every", self.exact_adi_every, 1)
        if self.symmetric and self.method not in SHARED_METHODS:
            raise ValueError(
                f"symmetric=True needs a method in {SHARED_METHODS}, got {self.method!r}"
            )

    def fit(self, game):
        self._validate()
        if not isinstance(game, (GameTensor, SymmetricGame)):
            raise TypeError("baselines run on desk-scale games")
        report = self.report or ("average" if self.method in ("rm", "fp") else "last")
        iterations = int(self.iterations)
        cadence = (
            int(self.exact_adi_every)
            if self.exact_adi_every is not None
            else max(1, iterations // 100)
        )
        log = IterateLog(self.run_id or f"{self.method}-{self.seed}", self.seed)
        started = time.perf_counter()

        if self.symmetric:
            if not isinstance(game, SymmetricGame):
                raise ValueError("symmetric baselines need a SymmetricGame")
            source = game
            state = BaselineState.initial((game.actions,), wrap=list)
        else:
            source = game.expand_to_tensor() if isinstance(game, SymmetricGame) else game
            state = BaselineState.initial(source.action_counts)
        state.inner_step = self.inner_step
        for t in range(1, iterations + 1):
            state = baseline_step(self.method, state, source, self.learning_rate)
            tracked = state.average if report == "average" else list(state.profile)
            if t % cadence == 0 or t == iterations:
                if self.symmetric:
                    exact = symmetric_adi_exact(game, tracked[0])
                else:
                    exact = adi_exact(source, StrategyProfile(tracked), Entropy.none()).total
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
        final = state.average if report == "average" else list(state.profile)
        if self.symmetric:
            self.strategy_ = np.array(final[0])
            self.profile_ = StrategyProfile([self.strategy_] * game.players)
        else:
            self.profile_ = StrategyProfile(final)
        self.log_ = log
        return self
