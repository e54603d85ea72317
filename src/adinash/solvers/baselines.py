"""Baseline dynamics the deviation-incentive solvers are compared against:
simultaneous gradient ascent (FTRL), regret matching, fictitious play,
exploitability descent, extragradient, and plain deviation-incentive descent.
"""

import time
from dataclasses import dataclass

import numpy as np

from ..entropy import Entropy, _hard_argmax
from ..exact import exact_pairwise_matrices, payoff_gradients
from ..normalform import GameTensor, StrategyProfile, SymmetricGame
from ..simplex import stack_rows
from .adidas import _GeneralView, _SymmetricView, blocks_gradient, descent_step
from .base import BaseSolver, IterateLog, profile_hash

METHODS = ("ftrl", "rm", "fp", "ed", "extragrad", "ped")
SHARED_METHODS = ("ftrl", "rm", "fp")


@dataclass
class BaselineState:
    """Mutable per-method state; unused slots stay None.

    `profile` holds one strategy per player as the last step returned them,
    unrenormalized, as a ``StrategyProfile._stepped``; the initial and any
    caller-set strategies are checked where they are used. For the
    shared-strategy form on a SymmetricGame it holds one row, the strategy
    every player shares.
    """

    profile: list
    t: int = 0
    cumulative_regret: list = None
    counts: list = None
    average: list = None
    inner_step: float = None

    @classmethod
    def initial(cls, action_counts):
        """Uniform start, one strategy per action count."""
        profile = [np.full(m, 1.0 / m) for m in action_counts]
        zeros = [np.zeros(m) for m in action_counts]
        # regrets and counts are updated in place: each slot gets its own arrays
        return cls(profile, 0, zeros, [z.copy() for z in zeros], [s.copy() for s in profile])


def _gradients(game, profile):
    """Per-player payoff gradients; one gradient for a strategy shared by
    every player of a SymmetricGame."""
    if len(profile) < game.players:
        return [game.deviation_payoffs(profile[0])]
    return payoff_gradients(game, profile)


def _stepped(rows):
    """Rows a step built, on the simplex up to rounding, held unchecked."""
    return StrategyProfile._stepped(stack_rows(rows))


def _normalized(weights):
    """Nonnegative weights scaled to unit mass; uniform when they are all 0."""
    total = weights.sum()
    return weights / total if total > 0.0 else np.full(weights.size, 1.0 / weights.size)


def baseline_step(method, state, game, learning_rate):
    """One iteration of the named dynamic on a desk-scale game; returns the
    advanced state. A state with fewer strategies than `game` has players is
    the shared-strategy form: ftrl / rm / fp on a SymmetricGame.
    """
    if method not in METHODS:
        raise ValueError(f"unknown baseline {method!r}; choose from {METHODS}")
    x = state.profile
    n = len(x)
    t = state.t + 1
    if n < game.players:
        if method not in SHARED_METHODS:
            raise ValueError(f"{method!r} has no shared-strategy form here")
        if not isinstance(game, SymmetricGame):
            raise ValueError("the shared-strategy form needs a SymmetricGame")

    if method in ("ftrl", "ed", "extragrad"):
        # ascent from x along the gradient at a midpoint: x itself (ftrl), the
        # best response (ed; extragrad without a finite inner step), or one
        # inner ascent step (extragrad)
        grads = _gradients(game, x)
        if method != "ftrl":
            inner = state.inner_step
            if method == "ed" or inner is None or np.isinf(inner):
                midpoint = [_hard_argmax(g) for g in grads]
            else:
                midpoint = descent_step(x, [-g for g in grads], inner, tangent=False)
            grads = _gradients(game, _stepped(midpoint))
        new = descent_step(x, [-g for g in grads], learning_rate, tangent=False)
    elif method == "rm":
        grads = _gradients(game, x)
        for i in range(n):
            state.cumulative_regret[i] += grads[i] - float(np.dot(x[i], grads[i]))
        new = [_normalized(np.clip(regret, 0.0, None)) for regret in state.cumulative_regret]
    elif method == "fp":
        grads = _gradients(game, _stepped([_normalized(c) for c in state.counts]))
        for i in range(n):
            state.counts[i][int(np.argmax(grads[i]))] += 1.0
        new = [_normalized(c) for c in state.counts]
    else:  # ped: descent on the zero-entropy deviation incentive
        matrices = exact_pairwise_matrices(game, x)
        new = descent_step(x, blocks_gradient(matrices, x, Entropy.none()), learning_rate)

    state.profile = _stepped(new)
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

    The game comes through the ADIDAS solvers' views with no entropy: the
    steps read the symmetric view's game, or the general view's `exact`, and
    the view gives the counts, the exact ADI and the fitted attributes (with
    `last_profile_`, and `strategy_` / `last_strategy_` when symmetric).
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
        self._validate_shared(("learning_rate",), 1)
        inner = self.inner_step
        if not (inner is None or inner == np.inf or (np.isfinite(inner) and inner > 0.0)):
            raise ValueError(f"inner_step must be None, inf or positive and finite, got {inner!r}")
        if self.symmetric and self.method not in SHARED_METHODS:
            raise ValueError(
                f"symmetric=True needs a method in {SHARED_METHODS}, got {self.method!r}"
            )

    def fit(self, game):
        self._validate()
        if not isinstance(game, (GameTensor, SymmetricGame)):
            raise TypeError("baselines run on desk-scale games")
        view = (_SymmetricView if self.symmetric else _GeneralView)(game, Entropy.none())
        view.check_fits("BaselineSolver steps on the dense game")
        source = view.desk if self.symmetric else view.exact
        report = self.report or ("average" if self.method in ("rm", "fp") else "last")
        iterations, every = int(self.iterations), self.exact_adi_every
        cadence = max(1, iterations // 100) if every is None else int(every)
        log = IterateLog(self.run_id or f"{self.method}-{self.seed}", self.seed)
        started = time.perf_counter()
        state = BaselineState.initial(view.counts)
        state.inner_step = self.inner_step
        for t in range(1, iterations + 1):
            state = baseline_step(self.method, state, source, self.learning_rate)
            tracked = state.average if report == "average" else list(state.profile)
            if t % cadence == 0 or t == iterations:
                exact = view.exact_adi(_stepped(tracked))
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
        view.set_fitted(self, tracked, state.profile)
        self.log_ = log
        return self
