"""Average-deviation-incentive descent with adaptive sampling.

The solver walks the continuum of entropy-regularized equilibria: start
uniform (the infinite-temperature solution), descend the regularized deviation
incentive estimated from sampled joint play, and halve the temperature
whenever the amortized estimate drops under the threshold. Payoff-gradient
estimates are amortized across iterations through the auxiliary variables y.
"""

import dataclasses
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
from ..normalform import (
    DESK_SCALE_ENTRIES,
    GameTensor,
    StrategyProfile,
    SymmetricGame,
    validate_integer,
)
from ..oracles import BernoulliOracle, PayoffOracle, as_oracle
from ..sampling import (
    AuxiliaryState,
    estimate_pairwise_matrices,
    mean_pairwise_matrices,
    new_rng,
    sample_actions,
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
    entries), checked finite, then stepped; a non-finite gradient or
    Euclidean step raises FloatingPointError. Ascent is descent on the
    negated gradients with `tangent=False`.
    """
    if tangent:
        gradients = [tangent_project(g) for g in gradients]
    if not all(np.all(np.isfinite(g)) for g in gradients):
        raise FloatingPointError("non-finite gradient")
    pairs = zip(strategies, gradients)
    if projection == "euclidean":
        stepped = [s - learning_rate * g for s, g in pairs]
        if not all(np.all(np.isfinite(v)) for v in stepped):
            raise FloatingPointError(f"step at learning rate {learning_rate!r} overflowed")
        return [simplex_project_euclidean(v) for v in stepped]
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

    def _validate(self):
        """Reject bad hyperparameters, NaN and inf included, naming each."""
        for name in ("learning_rate", "aux_learning_rate", "adi_threshold"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not self.aux_learning_rate <= 1.0:
            raise ValueError(f"aux_learning_rate must be <= 1, got {self.aux_learning_rate!r}")
        if self.exact_adi_every is not None:
            validate_integer("exact_adi_every", self.exact_adi_every, 0)
        temperature = self.initial_temperature
        if temperature is not None and not np.isfinite(float(temperature)):
            raise ValueError(f"initial_temperature must be finite, got {temperature!r}")
        for name in ("iterations", "samples", "bernoulli_repeats"):
            validate_integer(name, getattr(self, name), 1)

    def _descend(self, view_type, game_or_oracle):
        """The anneal-and-descend loop of both solvers; `view_type` supplies
        everything that depends on the kind of game."""
        self._validate()
        kind = _resolve_entropy(self.entropy, self.initial_temperature)
        view = view_type(game_or_oracle, kind)
        oracle, desk = view.oracle, view.desk
        if self.exact_gradients and desk is None:
            raise ValueError(view.needs_desk)
        iterations, samples, repeats = (
            int(self.iterations), int(self.samples), int(self.bernoulli_repeats)
        )
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
                blocks = view.sampled_blocks(x, rng, samples, repeats)
            nablas = view.payoff_gradients(blocks, x)
            aux = update_aux(aux, nablas, self.aux_learning_rate)
            estimate, estimate_unreg = view.amortized(x, aux.y, kind)
            gradients = view.gradients(blocks, nablas, aux.y, x, kind)
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


class _GeneralView:
    """A general game or oracle as the descent loop, the warm-up and the bias
    table see it: one strategy per player and every ordered pair's block. It
    is the one place that turns a game or oracle into blocks."""

    run_prefix = "adidas"
    games = (GameTensor, SymmetricGame)
    needs_desk = "exact gradients need a desk-scale game, not a bare oracle"

    def __init__(self, game_or_oracle, kind):
        """Accepts the input or raises; builds the oracle and, when the
        payoffs are known, the desk game, offset for a Tsallis `kind`."""
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
        self.players = self.oracle.players

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

    def sampled_blocks(self, x, rng, samples, repeats):
        """Blocks averaged over `samples` joint actions drawn from x, each
        filled `repeats` times."""
        return mean_pairwise_matrices(
            [
                estimate_pairwise_matrices(self.oracle, sample_joint_action(x, rng), repeats)
                for _ in range(samples)
            ]
        )

    def payoff_gradients(self, matrices, x):
        return matrices.payoff_gradients(x)

    def amortized(self, x, y, kind):
        """The amortized ADI report under `kind`, and its unregularized total."""
        return adi_amortized(x, y, kind), adi_amortized(x, y, Entropy.none()).total

    def gradients(self, matrices, nablas, y, x, kind):
        return adi_gradient(matrices, nablas, y, x, kind)

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
        return self.desk.entry_count <= DESK_SCALE_ENTRIES

    def exact_blocks(self, x):
        return self.desk.pair_payoff_matrix(x[0])

    def sampled_blocks(self, x, rng, samples, reps):
        """The focal block averaged over `samples` rests drawn from x: one
        draw of every rest, one batched read (each rest read `reps` times in
        a row), and the blocks added in sample order."""
        m = self.counts[0]
        rests = sample_actions(x[0], rng, samples * (self.players - 2))
        rests = rests.reshape(samples, self.players - 2)
        blocks = self.oracle.symmetric_pair_payoffs(np.repeat(rests, reps, axis=0))
        if reps > 1:
            blocks = blocks.reshape(samples, reps, m, m).sum(axis=1) / reps
        # a total started at 0.0, like the per-sample loop it replaces: -0.0 sums to 0.0
        return np.add.reduce(blocks, axis=0, initial=0.0) / samples

    def payoff_gradients(self, own, x):
        return [own @ x[0]]

    def amortized(self, x, y, kind):
        """Every player shares the strategy and the tracker, so one player's
        gain is every player's: computed once, reported n times."""
        (strategy,), (tracker,) = x, y
        n = self.players
        report = adi_amortized([strategy], [tracker], kind)
        report = dataclasses.replace(report, per_player=np.full(n, report.per_player[0]))
        return report, n * float(tracker.max() - np.dot(tracker, strategy))

    def gradients(self, own, nablas, y, x, kind):
        return [_symmetric_gradient(own, nablas[0], y[0], x[0], kind, self.players)]

    def exact_adi(self, strategies):
        return symmetric_adi_exact(self.desk, strategies[0])

    def set_fitted(self, solver, strategies, last):
        solver.strategy_ = np.array(strategies[0])
        solver.last_strategy_ = np.array(last[0])
        solver.profile_ = StrategyProfile([solver.strategy_] * self.players)


def _symmetric_gradient(own, nabla, y, x, kind, players):
    """Deviation-incentive gradient for one shared strategy.

    `own` is the focal player's block (rows: own actions) and `nabla` its
    payoff gradient `own @ x`; the partner view is the block's transpose, and
    the cross term is multiplied by the (n - 1) identical opponents.
    """
    policy, effect = response_terms(nabla, y, x, kind)
    return -policy + (players - 1) * (own.T @ effect)


def blocks_gradient(matrices, x, kind):
    """The `kind` deviation-incentive gradient with the blocks' payoff
    gradients, built once, feeding both the policy terms and the responses."""
    nablas = matrices.payoff_gradients(x)
    return adi_gradient(matrices, nablas, nablas, x, kind)


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
    cools. Desk-scale games only; no Tsallis offset is applied.

    Steps through the general view, even for a SymmetricGame: the symmetric
    view's gradients differ in the last bits, and at large step sizes the
    warm-up amplifies such differences into a different path.
    """
    view = _GeneralView(game, Entropy.none())
    if view.desk is None:
        raise ValueError(view.needs_desk)
    lam = 0.0
    x = view.wrap([np.full(m, 1.0 / m) for m in view.counts])
    for _ in range(int(anneal_rounds)):
        lam += float(anneal_increment)
        temperature = 1.0 / lam
        if entropy_family == "tsallis":
            temperature = min(1.0, temperature)
        kind = Entropy(entropy_family, temperature)
        step_size = learning_rate * min(1.0, temperature)
        for _ in range(int(descent_steps)):
            grads = blocks_gradient(view.exact_blocks(x), x, kind)
            x = view.wrap(descent_step(x, grads, step_size, projection, tangent_projection))
    return x
