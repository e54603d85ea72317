"""Experiment orchestration: sweeps, metric capture, bias measurement, and the
query-savings accounting used to compare solvers."""

import functools
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .entropy import Entropy
from .normalform import as_profile, multiset_count, validate_integer
from .sampling import new_rng
from .solvers import METHODS, AdidasSolver, BaselineSolver, SymmetricAdidasSolver
from .solvers.adidas import _GeneralView, blocks_gradient

SOLVER_FACTORIES = {
    "adidas": AdidasSolver,
    "adidas-symmetric": SymmetricAdidasSolver,
    **{method: functools.partial(BaselineSolver, method=method) for method in METHODS},
}
# a run's `first_below` is its first iteration with ADI under this
SELECTION_THRESHOLD = 0.01


@dataclass
class ExperimentConfig:
    """One sweep: a game, a solver family, parameter grids, and repetitions.

    Every grid cell runs `repetitions` times with seeds base_seed + rep; each
    run writes its own per-iteration CSV under `output_dir`.
    """

    game: object
    solver: str = "adidas"
    base_params: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    repetitions: int = 10
    base_seed: int = 0
    output_dir: str = "runs"

    def cells(self):
        """Every combination of the grids, except where `aux_rate_ratio` times
        the cell solver's learning rate would give an auxiliary rate above 1,
        which no solver accepts: the ratio grid is capped per learning rate."""
        if not self.grids:
            return [{}]
        keys = sorted(self.grids)
        for key in keys:
            if not self.grids[key]:
                raise ValueError(f"empty sweep grid for {key!r}")
        cells = (
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.grids[k] for k in keys))
        )
        return [
            cell
            for cell in cells
            if "aux_rate_ratio" not in cell
            or _cell_solver(self, cell).aux_learning_rate <= 1.0
        ]


@dataclass
class RunResult:
    run_id: str
    cell: dict
    seed: int
    final_adi: float
    first_below: object
    csv_path: str
    error: str = None


@dataclass
class CellSummary:
    cell: dict
    mean_final_adi: float
    std_final_adi: float
    mean_first_below: float
    runs: int


def default_sweep_grids():
    """The standard sweep: strategy rates over five decades, auxiliary rate as
    a multiple of the strategy rate, anneal thresholds, both projections, and
    fixed temperatures alongside the annealed run."""
    return {
        "learning_rate": [1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
        "aux_rate_ratio": [1.0, 10.0, 100.0],
        "adi_threshold": [0.01, 0.05],
        "projection": ["euclidean", "mirror"],
        "tangent_projection": [True, False],
        "initial_temperature": [0.0, 0.01, 0.05, 0.1],
        "anneal": [False],
    }


def _cell_solver(config, cell, **run):
    """The cell's solver, built through `SOLVER_FACTORIES` from the base
    parameters, the cell and `run` (seed, run id). The pseudo-parameter
    `aux_rate_ratio` sets the auxiliary rate as a multiple of the solver's
    strategy rate, the form the ratio sweeps use."""
    params = {**config.base_params, **cell, **run}
    ratio = params.pop("aux_rate_ratio", None)
    solver = SOLVER_FACTORIES[config.solver](**params)
    if ratio is not None:
        solver.set_params(aux_learning_rate=ratio * solver.learning_rate)
    return solver


def _run_job(config, job):
    """One (cell index, cell, repetition) run. A failure is recorded in the
    result, so the sweep goes on."""
    index, cell, rep = job
    seed = config.base_seed + rep
    run_id = f"cell{index:03d}-rep{rep:02d}"
    try:
        log = _cell_solver(config, cell, seed=seed, run_id=run_id).fit(config.game).log_
        path = os.path.join(config.output_dir, f"{run_id}.csv")
        log.to_csv(path)
    except Exception as err:
        return RunResult(run_id, cell, seed, float("nan"), None, "", error=str(err))
    final, column = log.final_exact_adi(), "adi_exact"
    if np.isnan(final):
        final, column = log.final["adi_estimate"], "adi_estimate"
    below = log.first_iteration_below(SELECTION_THRESHOLD, column=column)
    return RunResult(run_id, cell, seed, final, below, path)


def run_experiment(config, workers=1):
    """Execute every (cell x repetition), summarize, pick the best cell.

    A parameter the solver does not take raises before any job runs, since
    every cell would fail on it. Failures while a cell runs are recorded and
    the sweep continues. The best cell has the lowest mean final ADI; ties
    break on the earliest mean iteration at which ADI fell below the
    selection threshold.
    Returns (results, summaries, best_summary).
    """
    if config.solver not in SOLVER_FACTORIES:
        raise ValueError(f"unknown solver {config.solver!r}")
    validate_integer("repetitions", config.repetitions, 1)
    validate_integer("workers", workers, 1)
    cells = config.cells()
    for cell in cells:
        _cell_solver(config, cell)
    os.makedirs(config.output_dir, exist_ok=True)
    jobs = [
        (index, cell, rep)
        for index, cell in enumerate(cells)
        for rep in range(config.repetitions)
    ]
    run = functools.partial(_run_job, config)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = list(map(run, jobs))

    results.sort(key=lambda r: r.run_id)
    summaries = []
    for cell in cells:
        mine = [r for r in results if r.cell == cell and r.error is None]
        if not mine:
            continue
        finals = np.array([r.final_adi for r in mine])
        belows = np.array(
            [r.first_below if r.first_below is not None else np.inf for r in mine],
            dtype=float,
        )
        summaries.append(
            CellSummary(
                cell=cell,
                mean_final_adi=float(finals.mean()),
                std_final_adi=float(finals.std()),
                mean_first_below=float(belows.mean()),
                runs=len(mine),
            )
        )
    best = min(
        summaries,
        key=lambda s: (s.mean_final_adi, s.mean_first_below),
        default=None,
    )
    _write_summary(config, summaries, best)
    return results, summaries, best


def _write_summary(config, summaries, best):
    import csv

    path = os.path.join(config.output_dir, "summary.csv")
    keys = sorted(config.grids)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            keys + ["mean_final_adi", "std_final_adi", "mean_first_below", "runs", "best"]
        )
        for s in summaries:
            writer.writerow(
                [repr(s.cell[k]) for k in keys]
                + [
                    repr(s.mean_final_adi),
                    repr(s.std_final_adi),
                    repr(s.mean_first_below),
                    repr(s.runs),
                    "1" if s is best else "0",
                ]
            )


@dataclass
class BiasRow:
    family: str
    temperature: float
    samples: int
    distance: float
    angle_degrees: float
    exact_norm: float
    distance_to_unregularized: float
    angle_to_unregularized: float
    offset: float


def _compare(mean, reference):
    distance = float(np.linalg.norm(mean - reference))
    denom = np.linalg.norm(mean) * np.linalg.norm(reference)
    cosine = float(np.dot(mean, reference) / denom) if denom > 0 else 1.0
    angle = float(np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0))))
    return distance, angle


def measure_gradient_bias(game, x, kinds, sample_counts, trials, seed=0):
    """Bias of mean sampled ADI gradients at each (entropy kind, sample count).

    Draws `trials` stochastic gradient estimates (fresh joint play each, no
    amortization) and compares their mean against two references: the exact
    gradient at the same temperature (pure estimator bias) and the exact
    zero-temperature gradient, whose comparison trades estimator bias against
    target distortion and so has an interior optimum over the temperature
    grid. A sample count of 0 requests the exact-block path (zero bias).
    A kind's blocks come from the solver's general view of `game` under that
    kind, so a Tsallis row and both its references read the game offset as
    the solver offsets it (the row reports the offset): exact blocks from the
    desk game (the mean game of a Bernoulli oracle), samples from its oracle.
    """
    validate_integer("trials", trials, 1)
    for count in sample_counts:
        validate_integer("sample_counts", count, 0)
    rng = new_rng(seed)
    views, rows = {}, []  # one view per distinct offset
    for kind in kinds:
        view = _GeneralView(game, kind)
        view.check_exact("measure_gradient_bias")
        view = views.setdefault(view.offset, view)
        profile = as_profile(x, view.counts)
        exact_blocks = view.exact_blocks(profile)
        cold = np.concatenate(blocks_gradient(exact_blocks, profile, Entropy.none()))
        exact_full = np.concatenate(blocks_gradient(exact_blocks, profile, kind))
        for count in sample_counts:
            if count == 0:
                mean = exact_full
            else:
                acc = np.zeros_like(exact_full)
                for _ in range(trials):
                    blocks = view.sampled_blocks(profile, rng, count)
                    acc += np.concatenate(blocks_gradient(blocks, profile, kind))
                mean = acc / trials
            norm = float(np.linalg.norm(exact_full))
            rows.append(BiasRow(
                kind.family, kind.temperature, count, *_compare(mean, exact_full), norm,
                *_compare(mean, cold), view.offset,
            ))
    return rows


@dataclass
class SavingsReport:
    players: int
    actions: int
    symmetric: bool
    tensor_entries: int
    queries_per_gradient: int
    ratio: float

    @property
    def ratio_floor(self):
        return int(self.ratio)


def query_savings_report(players, actions, symmetric=False):
    """Tensor size vs the per-gradient query bound, and their ratio.

    The ratio counts how many descent updates fit in one full-tensor
    enumeration budget: (1/n) m^(n-2) for general tensors, or the multiset
    count over m^2 when a symmetric equilibrium is wanted.
    """
    n = validate_integer("players", players, 2)
    m = validate_integer("actions", actions, 1)
    if symmetric:
        entries = multiset_count(m, n)
        per_gradient = m * m
    else:
        entries = n * m**n
        per_gradient = (n * m) ** 2
    return SavingsReport(
        players=n,
        actions=m,
        symmetric=symmetric,
        tensor_entries=entries,
        queries_per_gradient=per_gradient,
        ratio=entries / per_gradient,
    )
