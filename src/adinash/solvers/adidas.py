"""Average-deviation-incentive descent with adaptive sampling.

The solver walks the continuum of entropy-regularized equilibria: start
uniform (the infinite-temperature solution), descend the regularized deviation
incentive estimated from sampled joint play, and halve the temperature
whenever the amortized estimate drops under the threshold. Payoff-gradient
estimates are amortized across iterations through the auxiliary variables y.
"""

import functools
import time

import numpy as np

from ..adi import (
    adi_amortized,
    adi_exact,
    adi_gradient,
    response_terms,
    symmetric_adi_exact,
)
# best_response has no caller here; bench/tracer.py patches this binding
from ..entropy import Entropy, best_response  # noqa: F401
from ..exact import exact_pairwise_matrices
from ..normalform import GameTensor, StrategyProfile, SymmetricGame
from ..oracles import BernoulliOracle, PayoffOracle, as_oracle
from ..sampling import (
    AuxiliaryState,
    SampleConfig,
    estimate_pairwise_matrices,
    mean_pairwise_matrices,
    new_rng,
    sample_joint_action,
    update_aux,
)
from ..simplex import mirror_step_entropic, simplex_project_euclidean, tangent_project
from .base import BaseSolver, IterateLog, profile_hash

DEFAULT_SHANNON_TEMP = 100.0
DEFAULT_TSALLIS_POWER = 1.0
TSALLIS_OFFSET_MARGIN = 0.05


def anneal_decision(kind, estimate_mean, anneal_steps, threshold, aux_learning_rate):
    """The annealing rule: halve (clipping into [0, 1], snapping below the
    family cutoff to 0) when the per-player mean estimate is strictly under
    the threshold AND at least 1/aux_learning_rate steps have elapsed since
    the last anneal. Returns (kind, anneal_steps) advanced one step."""
    if estimate_mean < threshold and anneal_steps >= 1.0 / aux_learning_rate:
        return kind.anneal(), 0
    return kind, anneal_steps + 1


def _resolve_entropy(entropy, initial_temperature):
    if isinstance(entropy, Entropy):
        return entropy
    family = str(entropy)
    if family == "none":
        return Entropy.none()
    if initial_temperature is None:
        initial_temperature = (
            DEFAULT_SHANNON_TEMP if family == "shannon" else DEFAULT_TSALLIS_POWER
        )
    return Entropy(family, float(initial_temperature))


def tsallis_offset(game):
    """Constant added so payoffs are positive: -min + margin * range."""
    table = game.payoffs if isinstance(game, GameTensor) else game.table
    low, high = float(table.min()), float(table.max())
    if low > 0.0:
        return 0.0
    spread = high - low
    return -low + TSALLIS_OFFSET_MARGIN * (spread if spread > 0.0 else 1.0)


def descent_step(strategies, gradients, learning_rate, projection="euclidean", tangent=True):
    """One descent step per strategy, as plain arrays for the caller to wrap.

    The gradient is tangent-projected (which can overflow on huge finite
    entries), checked finite, then stepped; a non-finite one raises
    FloatingPointError.
    """
    if tangent:
        gradients = [tangent_project(g) for g in gradients]
    if not all(np.all(np.isfinite(g)) for g in gradients):
        raise FloatingPointError("non-finite deviation-incentive gradient")
    pairs = zip(strategies, gradients)
    if projection == "euclidean":
        return [simplex_project_euclidean(s - learning_rate * g) for s, g in pairs]
    if projection == "mirror":
        return [mirror_step_entropic(s, g, learning_rate) for s, g in pairs]
    raise ValueError(f"unknown projection {projection!r}")


class AdidasSolver(BaseSolver):
    """Anneal-and-descend Nash approximator for general normal-form games.

    Parameters mirror the algorithm: `learning_rate` steps the strategies,
    `aux_learning_rate` tracks the payoff-gradient averages, `adi_threshold`
    triggers annealing, `samples` fresh joint actions are averaged per
    iteration. `exact_gradients` substitutes exact pairwise blocks for the
    sampled ones (the infinite-sample variant); it needs a desk-scale game,
    not a bare oracle.
    """

    def __init__(
        self,
        entropy="shannon",
        initial_temperature=None,
        learning_rate=0.01,
        aux_learning_rate=0.1,
        adi_threshold=0.001,
        iterations=1000,
        samples=1,
        bernoulli_repeats=1,
        exact_gradients=False,
        projection="euclidean",
        tangent_projection=True,
        average_iterates=False,
        anneal=True,
        exact_adi_every=None,
        seed=0,
        run_id=None,
    ):
        self.entropy = entropy
        self.initial_temperature = initial_temperature
        self.learning_rate = learning_rate
        self.aux_learning_rate = aux_learning_rate
        self.adi_threshold = adi_threshold
        self.iterations = iterations
        self.samples = samples
        self.bernoulli_repeats = bernoulli_repeats
        self.exact_gradients = exact_gradients
        self.projection = projection
        self.tangent_projection = tangent_projection
        self.average_iterates = average_iterates
        self.anneal = anneal
        self.exact_adi_every = exact_adi_every
        self.seed = seed
        self.run_id = run_id

    def fit(self, game_or_oracle):
        return self._descend(_GeneralView, game_or_oracle)

    def solve(self, game_or_oracle):
        """Functional form: returns (profile, log)."""
        self.fit(game_or_oracle)
        return self.profile_, self.log_

    def _validate(self):
        """Reject bad hyperparameters, NaN and inf included, naming each."""
        for name in ("learning_rate", "aux_learning_rate", "adi_threshold"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        temperature = self.initial_temperature
        if temperature is not None and not np.isfinite(float(temperature)):
            raise ValueError(f"initial_temperature must be finite, got {temperature!r}")
        for name in ("iterations", "samples", "bernoulli_repeats"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")

    def _descend(self, view_type, game_or_oracle):
        """The anneal-and-descend loop of both solvers; `view_type` supplies
        everything that depends on the kind of game."""
        self._validate()
        kind = _resolve_entropy(self.entropy, self.initial_temperature)
        view = view_type(game_or_oracle, kind, self)
        oracle, desk = view.oracle, view.desk
        iterations = int(self.iterations)
        rng = new_rng(self.seed)
        x = view.wrap([np.full(m, 1.0 / m) for m in view.counts])
        aux = AuxiliaryState.zeros(view.counts)
        anneal_steps = 0
        cadence = self._exact_cadence(view)
        log = IterateLog(self.run_id or f"{view.run_prefix}-{self.seed}", self.seed)
        queries_before = oracle.queries
        running_mean = [np.array(s) for s in x]
        started = time.perf_counter()

        for t in range(1, iterations + 1):
            if self.exact_gradients:
                blocks = view.exact_blocks(x)
            else:
                blocks = view.sampled_blocks(x, rng)
            aux = update_aux(aux, view.payoff_gradients(blocks, x), self.aux_learning_rate)
            estimate, estimate_unreg = view.amortized(x, aux.y, kind)
            gradients = view.gradients(blocks, aux.y, x, kind)
            x = view.wrap(
                descent_step(
                    x, gradients, self.learning_rate, self.projection, self.tangent_projection
                )
            )
            if self.average_iterates:
                running_mean = [m + (s - m) / t for m, s in zip(running_mean, x)]

            # anneal decision from the same evaluation that produced the step
            if self.anneal:
                kind, anneal_steps = anneal_decision(
                    kind, estimate.mean, anneal_steps, self.adi_threshold, self.aux_learning_rate
                )

            exact_value = None
            report = view.wrap(running_mean) if self.average_iterates else x
            if cadence and (t % cadence == 0 or t == iterations) and desk is not None:
                exact_value = view.exact_adi(report)
            log.append(
                iteration=t,
                adi_estimate=estimate.total,
                adi_estimate_unreg=estimate_unreg,
                adi_exact=exact_value,
                temperature=kind.temperature,
                queries=oracle.queries - queries_before,
                profile_digest=profile_hash(list(report)),
                wall_ms=(time.perf_counter() - started) * 1000.0,
            )

        view.set_fitted(self, view.wrap(running_mean) if self.average_iterates else x, x)
        self.aux_ = aux
        self.entropy_ = kind
        self.log_ = log
        self.queries_ = oracle.queries - queries_before
        self.payoff_offset_ = view.offset
        return self

    def _exact_cadence(self, view):
        if self.exact_adi_every is not None:
            return int(self.exact_adi_every)
        if view.desk is not None and view.exact_is_cheap():
            return max(1, int(self.iterations) // 100)
        return 0


class SymmetricAdidasSolver(AdidasSolver):
    """ADIDAS specialised to symmetric games and a symmetric equilibrium.

    One shared strategy and one auxiliary vector; gradients use the focal
    player's pairwise block, its transpose for the partner view, and the
    (n - 1) multiplier for identical opponents. A gradient costs m^2 queries
    per sample instead of (nm)^2. Takes AdidasSolver's parameters; the
    entropy defaults to Tsallis.
    """

    def __init__(self, entropy="tsallis", **params):
        super().__init__(entropy=entropy, **params)

    @classmethod
    def _param_names(cls):
        return AdidasSolver._param_names()

    def fit(self, game_or_oracle):
        return self._descend(_SymmetricView, game_or_oracle)

    def solve(self, game_or_oracle):
        """Functional form: returns (strategy, log)."""
        self.fit(game_or_oracle)
        return self.strategy_, self.log_


class _GeneralView:
    """A general game or oracle as the descent loop sees it: one strategy per
    player and every ordered pair's block."""

    run_prefix = "adidas"
    games = (GameTensor, SymmetricGame)
    needs_desk = "exact gradients need a desk-scale game, not a bare oracle"

    def __init__(self, game_or_oracle, kind, solver):
        """Accepts the input or raises; builds the oracle and, when the
        payoffs are known, the desk game, offset for Tsallis."""
        self.desk = None
        self.offset = 0.0
        if isinstance(game_or_oracle, self.games):
            self.desk = game_or_oracle
            if kind.family == "tsallis":
                self.offset = tsallis_offset(self.desk)
                if self.offset:
                    self.desk = self.desk.offset(self.offset)
            self.oracle = as_oracle(self.desk)
        elif self.accepts_oracle(game_or_oracle):
            self.oracle = game_or_oracle
            if isinstance(self.oracle, BernoulliOracle):
                self.desk = self.oracle.mean_game()
        else:
            raise self.rejection(game_or_oracle)
        if solver.exact_gradients and self.desk is None:
            raise ValueError(self.needs_desk)
        self.players = self.oracle.players
        self.samples = int(solver.samples)
        self.bernoulli_repeats = int(solver.bernoulli_repeats)

    def accepts_oracle(self, source):
        return isinstance(source, PayoffOracle)

    def rejection(self, source):
        return TypeError(f"cannot fit {type(source)!r}")

    @property
    def counts(self):
        return self.oracle.action_counts

    def wrap(self, strategies):
        return StrategyProfile(strategies)

    def exact_is_cheap(self):
        return self.desk.is_desk_scale()

    @functools.cached_property
    def tensor(self):
        """The desk game as a tensor, expanded once for exact blocks; exact
        ADI keeps reading the desk game itself."""
        if isinstance(self.desk, SymmetricGame):
            return self.desk.expand_to_tensor()
        return self.desk

    def exact_blocks(self, x):
        return exact_pairwise_matrices(self.tensor, x)

    def sampled_blocks(self, x, rng):
        config = SampleConfig(bernoulli_repeats=self.bernoulli_repeats)
        block_sets = []
        for _ in range(self.samples):
            joint = sample_joint_action(x, rng)
            block_sets.append(estimate_pairwise_matrices(self.oracle, joint, config))
        return mean_pairwise_matrices(block_sets)

    def payoff_gradients(self, matrices, x):
        return [matrices.payoff_gradient(x, i) for i in range(self.players)]

    def amortized(self, x, y, kind):
        """The amortized ADI report under `kind`, and its unregularized total."""
        return adi_amortized(x, y, kind), adi_amortized(x, y, Entropy.none()).total

    def gradients(self, matrices, y, x, kind):
        return adi_gradient(matrices, y, x, kind)

    def exact_adi(self, profile):
        return adi_exact(self.desk, profile, Entropy.none()).total

    def set_fitted(self, solver, profile, last):
        solver.profile_ = profile
        solver.last_profile_ = last


class _SymmetricView(_GeneralView):
    """A symmetric game or oracle as the descent loop sees it: the iterate is
    a one-element list holding the shared strategy, and the blocks are the
    focal player's m x m block."""

    run_prefix = "adidas-sym"
    games = (SymmetricGame,)
    needs_desk = "exact gradients need the symmetric game itself"

    def accepts_oracle(self, source):
        return isinstance(source, PayoffOracle) and source.is_symmetric()

    def rejection(self, source):
        return ValueError("symmetric solver needs a symmetric game or oracle")

    @property
    def counts(self):
        return self.oracle.action_counts[:1]

    def wrap(self, strategies):
        return list(strategies)

    def exact_is_cheap(self):
        return self.desk.shared_strategy_eval_cost() <= 10_000_000

    def exact_blocks(self, x):
        return self.desk.pair_payoff_matrix(x[0])

    def sampled_blocks(self, x, rng):
        cum = np.cumsum(x[0])
        last = x[0].size - 1
        reps = self.bernoulli_repeats
        total = None
        for _ in range(self.samples):
            rest = [
                min(int(np.searchsorted(cum, rng.random(), side="right")), last)
                for _ in range(self.players - 2)
            ]
            block = sum(
                self.oracle.symmetric_pair_payoffs(rest) for _ in range(reps)
            ) / reps
            total = block if total is None else total + block
        return total / self.samples

    def payoff_gradients(self, own, x):
        return [own @ x[0]]

    def amortized(self, x, y, kind):
        (strategy,), (tracker,) = x, y
        n = self.players
        report = adi_amortized(StrategyProfile([strategy] * n), [tracker] * n, kind)
        return report, n * float(tracker.max() - np.dot(tracker, strategy))

    def gradients(self, own, y, x, kind):
        return [_symmetric_gradient(own, x[0], y[0], kind, self.players)]

    def exact_adi(self, strategies):
        return symmetric_adi_exact(self.desk, strategies[0])

    def set_fitted(self, solver, strategies, last):
        solver.strategy_ = np.array(strategies[0])
        solver.last_strategy_ = np.array(last[0])
        solver.profile_ = StrategyProfile([solver.strategy_] * self.players)


def _symmetric_gradient(own, x, y, kind, players):
    """Deviation-incentive gradient for one shared strategy.

    `own` is the focal player's block (rows: own actions); the partner view is
    its transpose, and the cross term is multiplied by the (n - 1) identical
    opponents.
    """
    policy, effect = response_terms(own @ x, y, x, kind)
    return -policy + (players - 1) * (own.T @ effect)


def adidas(oracle, **params):
    """Functional surface: run the general solver, return (profile, log)."""
    return AdidasSolver(**params).solve(oracle)


def adidas_symmetric(oracle, **params):
    """Functional surface: run the symmetric solver, return (strategy, log)."""
    return SymmetricAdidasSolver(**params).solve(oracle)


def warmup_anneal_descend(
    game,
    anneal_rounds,
    descent_steps,
    anneal_increment,
    learning_rate=0.05,
    entropy_family="shannon",
    projection="euclidean",
    tangent_projection=True,
):
    """The exact-gradient warm-up: anneal the inverse temperature, re-descend.

    Starts at infinite temperature (uniform is the exact solution there) and
    after each increment of lam runs `descent_steps` exact-gradient descent
    steps on the deviation incentive at temperature 1/lam. The per-round step
    size is learning_rate * min(1, temperature): the loss curvature grows as
    1/temperature, so a fixed step leaves the stability region as the path
    cools. Dense desk-scale games only.
    """
    if isinstance(game, SymmetricGame):
        game = game.expand_to_tensor()
    lam = 0.0
    x = StrategyProfile.uniform(game.action_counts)
    n = game.players
    for _ in range(int(anneal_rounds)):
        lam += float(anneal_increment)
        temperature = 1.0 / lam
        if entropy_family == "tsallis":
            temperature = min(1.0, temperature)
        kind = Entropy(entropy_family, temperature)
        step_size = learning_rate * min(1.0, temperature)
        for _ in range(int(descent_steps)):
            matrices = exact_pairwise_matrices(game, x)
            nabla = [matrices.payoff_gradient(x, i) for i in range(n)]
            grads = adi_gradient(matrices, nabla, x, kind)
            x = StrategyProfile(
                descent_step(x, grads, step_size, projection, tangent_projection)
            )
    return x
