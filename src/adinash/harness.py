"""Experiment orchestration: sweeps, metric capture, bias measurement, and the
query-savings accounting used to compare solvers."""

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .entropy import Entropy
from .normalform import as_profile, multiset_count, validate_integer
from .sampling import new_rng
from .solvers import AdidasSolver, BaselineSolver, SymmetricAdidasSolver
from .solvers.adidas import _GeneralView, blocks_gradient

SOLVER_FACTORIES = {
    "adidas": AdidasSolver,
    "adidas-symmetric": SymmetricAdidasSolver,
    "ftrl": lambda **kw: BaselineSolver(method="ftrl", **kw),
    "rm": lambda **kw: BaselineSolver(method="rm", **kw),
    "fp": lambda **kw: BaselineSolver(method="fp", **kw),
    "ed": lambda **kw: BaselineSolver(method="ed", **kw),
    "extragrad": lambda **kw: BaselineSolver(method="extragrad", **kw),
    "ped": lambda **kw: BaselineSolver(method="ped", **kw),
}


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
    selection_threshold: float = 0.01

    def cells(self):
        """Every combination of the grids, except where `aux_rate_ratio` times
        the cell's learning rate would give an auxiliary rate above 1, which
        no solver accepts: the ratio grid is capped per learning rate."""
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
            or _resolve_cell_params(self.base_params, cell)["aux_learning_rate"] <= 1.0
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


def _resolve_cell_params(base_params, cell):
    """Merge a grid cell into the base parameters.

    The pseudo-parameter `aux_rate_ratio` expresses the auxiliary rate as a
    multiple of the strategy rate, the form the ratio sweeps use.
    """
    params = dict(base_params)
    params.update(cell)
    ratio = params.pop("aux_rate_ratio", None)
    if ratio is not None:
        params["aux_learning_rate"] = ratio * params.get("learning_rate", 0.01)
    return params


def default_sweep_grids(include_temperature=True):
    """The standard sweep: strategy rates over five decades, auxiliary rate as
    a multiple of the strategy rate, anneal thresholds, both projections, and
    (optionally) fixed temperatures alongside the annealed run."""
    grids = {
        "learning_rate": [1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
        "aux_rate_ratio": [1.0, 10.0, 100.0],
        "adi_threshold": [0.01, 0.05],
        "projection": ["euclidean", "mirror"],
        "tangent_projection": [True, False],
    }
    if include_temperature:
        grids["initial_temperature"] = [0.0, 0.01, 0.05, 0.1]
        grids["anneal"] = [False]
    return grids


def _run_cell(config, cell_index, cell, rep):
    seed = config.base_seed + rep
    run_id = f"cell{cell_index:03d}-rep{rep:02d}"
    params = _resolve_cell_params(config.base_params, cell)
    params["seed"] = seed
    params["run_id"] = run_id
    factory = SOLVER_FACTORIES[config.solver]
    solver = factory(**params)
    solver.fit(config.game)
    log = solver.log_
    path = os.path.join(config.output_dir, f"{run_id}.csv")
    log.to_csv(path)
    final = log.final_exact_adi()
    if np.isnan(final):
        final = log.final["adi_estimate"]
    column = "adi_exact" if not np.isnan(log.final_exact_adi()) else "adi_estimate"
    below = log.first_iteration_below(config.selection_threshold, column=column)
    return RunResult(run_id, cell, seed, final, below, path)


def _failed_run(config, index, cell, rep, err):
    return RunResult(
        f"cell{index:03d}-rep{rep:02d}",
        cell,
        config.base_seed + rep,
        float("nan"),
        None,
        "",
        error=str(err),
    )


def run_experiment(config, workers=1):
    """Execute every (cell x repetition), summarize, pick the best cell.

    Cell failures are recorded and the sweep continues. The best cell has the
    lowest mean final ADI; ties break on the earliest mean iteration at which
    ADI fell below the selection threshold.
    Returns (results, summaries, best_summary).
    """
    if config.solver not in SOLVER_FACTORIES:
        raise ValueError(f"unknown solver {config.solver!r}")
    os.makedirs(config.output_dir, exist_ok=True)
    jobs = [
        (index, cell, rep)
        for index, cell in enumerate(config.cells())
        for rep in range(config.repetitions)
    ]
    results = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_cell, config, index, cell, rep)
                for index, cell, rep in jobs
            ]
            for (index, cell, rep), fut in zip(jobs, futures):
                try:
                    results.append(fut.result())
                except Exception as err:  # cell failure: record, continue
                    results.append(_failed_run(config, index, cell, rep, err))
    else:
        for index, cell, rep in jobs:
            try:
                results.append(_run_cell(config, index, cell, rep))
            except Exception as err:
                results.append(_failed_run(config, index, cell, rep, err))

    results.sort(key=lambda r: r.run_id)
    summaries = []
    for index, cell in enumerate(config.cells()):
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
    Blocks come from the solver's general view of `game`, with no Tsallis
    offset: exact blocks from the desk game (the mean game of a Bernoulli
    oracle), samples from the game's oracle.
    """
    validate_integer("trials", trials, 1)
    for count in sample_counts:
        validate_integer("sample_counts", count, 0)
    view = _GeneralView(game, Entropy.none())
    profile = as_profile(x, view.counts)
    rng = new_rng(seed)
    exact_blocks = view.exact_blocks(profile)
    cold = np.concatenate(blocks_gradient(exact_blocks, profile, Entropy.none()))
    rows = []
    for kind in kinds:
        exact_full = np.concatenate(blocks_gradient(exact_blocks, profile, kind))
        for count in sample_counts:
            if count == 0:
                mean = exact_full
            else:
                acc = np.zeros_like(exact_full)
                for _ in range(trials):
                    blocks = view.sampled_blocks(profile, rng, count, 1)
                    acc += np.concatenate(blocks_gradient(blocks, profile, kind))
                mean = acc / trials
            distance, angle = _compare(mean, exact_full)
            cold_distance, cold_angle = _compare(mean, cold)
            rows.append(
                BiasRow(
                    family=kind.family,
                    temperature=kind.temperature,
                    samples=count,
                    distance=distance,
                    angle_degrees=angle,
                    exact_norm=float(np.linalg.norm(exact_full)),
                    distance_to_unregularized=cold_distance,
                    angle_to_unregularized=cold_angle,
                )
            )
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
    n, m = int(players), int(actions)
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
