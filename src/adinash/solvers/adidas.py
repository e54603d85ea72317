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
    AdiReport,
    adi_amortized,
    adi_exact,
    adi_gradient,
    symmetric_adi_exact,
    unregularized_gains,
)
from ..entropy import Entropy, best_response
from ..exact import SharedBlock, exact_pairwise_matrices
from .. import normalform
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
    new_rng,
    sample_actions,
    sample_joint_action,
    sample_mean,
    update_aux,
)
from ..simplex import (
    map_rows,
    mirror_step_entropic,
    simplex_project_euclidean,
    stack_like,
    stack_rows,
    tangent_project,
)
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
    """One descent step per strategy, as the caller's next iterate: one
    (n, m) array when the strategies have one length, else a list. Any
    `projection` but "mirror" steps Euclidean; `AdidasSolver` checks its own.

    Gradients shaped unlike the strategies raise ValueError. A gradient is
    tangent-projected (which can overflow on huge finite entries), checked
    finite, then stepped; a non-finite gradient or Euclidean step raises
    FloatingPointError. Ascent is descent on the negated gradients with
    `tangent=False`. Every returned row is finite, nonnegative and of unit
    mass up to rounding (the Euclidean projection clamps at 0 and checks the
    mass; the mirror step renormalizes and raises unless every entry is
    positive), so the strategy check would return its bytes: the loops hold it
    as a ``StrategyProfile._stepped``.
    """
    x = stack_rows(strategies)
    g = stack_like("gradients", gradients, x)
    if tangent:
        g = map_rows(tangent_project, g)
    if not _finite(g):
        raise FloatingPointError("non-finite gradient")
    if projection == "mirror":
        return map_rows(lambda s, d: mirror_step_entropic(s, d, learning_rate), x, g)
    stepped = map_rows(lambda s, d: s - learning_rate * d, x, g)
    if not _finite(stepped):
        raise FloatingPointError(f"step at learning rate {learning_rate!r} overflowed")
    return map_rows(simplex_project_euclidean, stepped)


def _finite(rows):
    """Whether every entry of a stack, or of every row of a list, is finite."""
    if isinstance(rows, np.ndarray):
        return bool(np.isfinite(rows).all())
    return all(np.isfinite(r).all() for r in rows)


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
        self._validate_shared(("learning_rate", "aux_learning_rate", "adi_threshold"), 0)
        if not self.aux_learning_rate <= 1.0:
            raise ValueError(f"aux_learning_rate must be <= 1, got {self.aux_learning_rate!r}")
        temperature = self.initial_temperature
        if temperature is not None and not np.isfinite(float(temperature)):
            raise ValueError(f"initial_temperature must be finite, got {temperature!r}")
        validate_integer("samples", self.samples, 1)
        if self.projection not in ("euclidean", "mirror"):
            raise ValueError(f"projection must be 'euclidean' or 'mirror', got {self.projection!r}")
        flags = ("exact_gradients", "tangent_projection", "average_iterates", "anneal")
        values = (self.exact_gradients, self.tangent_projection, self.average_iterates, self.anneal)
        for name, value in zip(flags, values):
            if type(value) not in (bool, np.bool_):
                raise ValueError(f"{name} must be a bool, got {value!r}")

    def _descend(self, view_type, game_or_oracle):
        """The anneal-and-descend loop of both solvers; `view_type` supplies
        everything that depends on the kind of game."""
        self._validate()
        kind = _resolve_entropy(self.entropy, self.initial_temperature)
        view = view_type(game_or_oracle, kind)
        oracle = view.oracle
        if self.exact_gradients:
            view.check_exact("exact_gradients")
        iterations, samples = int(self.iterations), int(self.samples)
        average = self.average_iterates
        rng = new_rng(self.seed)
        rows = stack_rows([np.full(m, 1.0 / m) for m in view.counts])
        x = StrategyProfile._stepped(rows)
        aux = AuxiliaryState.zeros(view.counts)
        anneal_steps = 0
        cadence = self._exact_cadence(view)
        log = IterateLog(self.run_id or f"{view.run_prefix}-{self.seed}", self.seed)
        queries_before = oracle.queries
        report = rows
        started = time.perf_counter()

        for t in range(1, iterations + 1):
            if self.exact_gradients:
                blocks = view.exact_blocks(x)
            else:
                blocks = view.sampled_blocks(x, rng, samples)
            nablas = blocks.payoff_gradient(x)
            aux = update_aux(aux, nablas, self.aux_learning_rate)
            estimate, estimate_unreg = view.amortized(x, aux.y, kind)
            gradients = adi_gradient(blocks, nablas, estimate.responses, x, kind)
            rows = descent_step(
                x, gradients, self.learning_rate, self.projection, self.tangent_projection
            )
            x = StrategyProfile._stepped(rows)
            report = map_rows(lambda m, s: m + (s - m) / t, report, rows) if average else rows

            # anneal decision from the same evaluation that produced the step
            if self.anneal:
                kind, anneal_steps = anneal_decision(
                    kind, estimate.mean, anneal_steps, self.adi_threshold, self.aux_learning_rate
                )

            exact_value = None
            if cadence and (t % cadence == 0 or t == iterations):
                exact_value = view.exact_adi(StrategyProfile._stepped(report))
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

        view.set_fitted(self, report, rows)
        self.aux_ = aux
        self.entropy_ = kind
        self.log_ = log
        self.queries_ = oracle.queries - queries_before
        self.payoff_offset_ = view.offset
        return self

    def _exact_cadence(self, view):
        """Steps between exact-ADI evaluations, 0 for none (always without a
        desk game): `exact_adi_every` if given, else 1% where it is cheap."""
        every = self.exact_adi_every
        if view.desk is None:
            return 0
        if every is None:
            return max(1, int(self.iterations) // 100) if view.exact_is_cheap() else 0
        if every:
            view.check_fits("exact_adi_every needs exact ADI")
        return int(every)


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
    """A general game or oracle as the descent loop, the warm-up, the bias
    table and the baselines see it: one strategy per player and every ordered
    pair's block. It is the one place that turns a game or oracle into what a
    solver evaluates: sampled blocks from the oracle, exact blocks and exact
    ADI from one source, `exact`, and the fitted attributes."""

    run_prefix = "adidas"
    games = (GameTensor, SymmetricGame)
    needs_desk = "exact gradients need a desk-scale game, not a bare oracle"

    def __init__(self, game_or_oracle, kind):
        """Accepts the input or raises (a one-player game among the
        rejections); builds the oracle and, when the payoffs are known, the
        desk game, offset for a Tsallis `kind`."""
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
        if self.players < 2:
            raise ValueError(f"a solver needs at least two players, got players={self.players}")

    def accepts_oracle(self, source):
        return isinstance(source, PayoffOracle)

    def rejection(self, source):
        return TypeError(f"cannot fit {type(source)!r}")

    @property
    def counts(self):
        return self.oracle.action_counts

    def exact_is_cheap(self):
        return self.desk.is_desk_scale()

    def check_exact(self, who):
        """Raise, naming `who`, unless exact blocks can be built."""
        if self.desk is None:
            raise ValueError(self.needs_desk)
        self.check_fits(f"{who} needs exact blocks")

    def check_fits(self, need):
        """Raise, starting with `need`, unless `exact` can be built: a
        SymmetricGame must expand densely."""
        if isinstance(self.desk, SymmetricGame) and not self.desk.is_desk_scale():
            raise ValueError(
                f"{need}, which expands this game to {self.desk.dense_entry_count} "
                f"entries, over DESK_SCALE_ENTRIES = {DESK_SCALE_ENTRIES}"
            )

    @functools.cached_property
    def exact(self):
        """The one source of exact blocks and exact ADI: the desk game, with a
        SymmetricGame expanded once."""
        if isinstance(self.desk, SymmetricGame):
            return self.desk.expand_to_tensor()
        return self.desk

    def exact_blocks(self, x):
        return exact_pairwise_matrices(self.exact, x)

    def sampled_blocks(self, x, rng, samples):
        """Blocks averaged over `samples` joint actions drawn from x in one
        draw, entrywise in sample order (`sample_mean`)."""
        return estimate_pairwise_matrices(self.oracle, sample_joint_action(x, rng, samples))

    def amortized(self, x, y, kind):
        """The amortized ADI report under `kind`, and its unregularized total."""
        return adi_amortized(x, y, kind), float(unregularized_gains(y, stack_rows(x)).sum())

    def exact_adi(self, profile):
        return adi_exact(self.exact, profile, Entropy.none()).total

    def set_fitted(self, solver, profile, last):
        solver.last_profile_ = StrategyProfile(last)
        solver.profile_ = StrategyProfile(profile) if profile is not last else solver.last_profile_


class _SymmetricView(_GeneralView):
    """A symmetric game or oracle as the descent loop sees it: the iterate is
    a one-row stack holding the shared strategy, and the blocks are the
    focal player's m x m block as a `SharedBlock`."""

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

    def exact_is_cheap(self):
        return self.desk.entry_count <= DESK_SCALE_ENTRIES

    def check_fits(self, need):
        """Exact blocks and exact ADI read the symmetric game itself."""

    def check_exact(self, who):
        super().check_exact(who)
        if not self.desk.pair_table_fits():
            raise ValueError(
                f"{who} reads the pair table, {self.desk.pair_table_entries} entries "
                f"here, over PAIR_TABLE_ENTRIES = {normalform.PAIR_TABLE_ENTRIES}"
            )

    def exact_blocks(self, x):
        return SharedBlock(self.desk.pair_payoff_matrix(x[0]), self.players)

    def sampled_blocks(self, x, rng, samples):
        """The focal block averaged over `samples` rests drawn from x: one
        draw of every rest, one batched read, and the blocks added in sample
        order."""
        rests = sample_actions(x[0], rng, samples * (self.players - 2))
        rests = rests.reshape(samples, self.players - 2)
        return SharedBlock(sample_mean(self.oracle.symmetric_pair_payoffs(rests)), self.players)

    def amortized(self, x, y, kind):
        """Every player shares the strategy and the tracker, so one player's
        gain is every player's: computed once, reported n times."""
        one = adi_amortized(x, y, kind)
        report = AdiReport(one.per_player.repeat(self.players), one.regularized, one.responses)
        return report, self.players * float(unregularized_gains(y[0], x[0]))

    def exact_adi(self, strategies):
        return symmetric_adi_exact(self.desk, strategies[0])

    def set_fitted(self, solver, strategies, last):
        solver.strategy_ = np.array(strategies[0])
        solver.last_strategy_ = np.array(last[0])
        solver.profile_ = StrategyProfile([solver.strategy_] * self.players)


def blocks_gradient(matrices, x, kind):
    """The `kind` deviation-incentive gradient with the blocks' payoff
    gradients, built once, feeding both the policy terms and the responses."""
    nablas = matrices.payoff_gradient(x)
    if isinstance(nablas, np.ndarray):
        responses = best_response(nablas, kind)
    else:
        responses = [best_response(g, kind) for g in nablas]
    return adi_gradient(matrices, nablas, responses, x, kind)


def warmup_anneal_descend(
    game,
    anneal_rounds,
    descent_steps,
    anneal_increment,
    learning_rate=0.05,
    entropy_family="shannon",
):
    """The exact-gradient warm-up: anneal the inverse temperature, re-descend.

    Starts at infinite temperature (uniform is the exact solution there) and
    after each increment of lam runs `descent_steps` exact-gradient descent
    steps on the deviation incentive at temperature 1/lam. The per-round step
    size is learning_rate * min(1, temperature): the loss curvature grows as
    1/temperature, so a fixed step leaves the stability region as the path
    cools. Steps are Euclidean and tangent-projected. Desk-scale games only;
    no Tsallis offset is applied. Counts must be integers >= 0, rates positive
    and finite, the family "shannon" or "tsallis"; else ValueError names it.

    Steps through the general view, even for a SymmetricGame: the symmetric
    view's gradients differ in the last bits, and at large step sizes the
    warm-up amplifies such differences into a different path.
    """
    if entropy_family not in ("shannon", "tsallis"):
        raise ValueError(f"entropy_family must be 'shannon' or 'tsallis', got {entropy_family!r}")
    rounds = validate_integer("anneal_rounds", anneal_rounds, 0)
    steps = validate_integer("descent_steps", descent_steps, 0)
    for name, rate in (("anneal_increment", anneal_increment), ("learning_rate", learning_rate)):
        if not (np.isfinite(rate) and rate > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {rate!r}")
    view = _GeneralView(game, Entropy.none())
    view.check_exact("warmup_anneal_descend")
    lam = 0.0
    x = StrategyProfile._stepped(stack_rows([np.full(m, 1.0 / m) for m in view.counts]))
    for _ in range(rounds):
        lam += float(anneal_increment)
        temperature = 1.0 / lam
        if entropy_family == "tsallis":
            temperature = min(1.0, temperature)
        kind = Entropy(entropy_family, temperature)
        step_size = learning_rate * min(1.0, temperature)
        for _ in range(steps):
            grads = blocks_gradient(view.exact_blocks(x), x, kind)
            x = StrategyProfile._stepped(descent_step(x, grads, step_size))
    return StrategyProfile(x)
