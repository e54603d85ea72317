"""One repetition of one workload, in the fresh interpreter ``run.py`` starts.

Builds the workload's game (repeated for a median when it is quick), solves
it cold with the first solver seed, checks the solve, and prints one JSON
line. With ``--all-seeds`` the remaining solver seeds are solved after the
cold one, for the quality metric and the digest record. With ``--trace 1``
the tracer wraps the set-up and the solves and its per-layer figures are
added.

    python3 bench/worker.py --workload blotto_sym_sampled --seed 0 --trace 0
"""

import argparse
import hashlib
import json
import math
import pathlib
import resource
import statistics
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import adinash  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from adinash.simplex import is_distribution  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, step_times_ms  # noqa: E402

SETUP_BUDGET_S = 0.1  # quick set-ups are repeated until this is spent
SETUP_MAX_CALLS = 50
REFERENCE_CALLS = 5  # reference-loop calls at each of three points of a repetition
_REF_VECTOR = np.linspace(0.1, 1.0, 36)
_REF_TENSOR = np.linspace(0.0, 1.0, 66**3).reshape(66, 66, 66)


def _reference_loop():
    """Fixed work with no adinash in it, in the two kinds the solvers are
    made of: small numpy calls driven from Python, and whole-array passes
    over a 66^3 tensor. About 6.5 ms on the machine the nominal speed in
    ``run.py`` was taken on."""
    x = _REF_VECTOR
    m = np.outer(x, x[::-1])
    acc = 0.0
    for i in range(300):
        y = np.exp(-x * (i % 7))
        acc += float((m @ y).sum() / y.max())
        acc += sum(k * k for k in range(40)) * 1e-9
    for i in range(14):
        acc += float(np.einsum("ijk,k->ij", _REF_TENSOR, _REF_TENSOR[i, i]).sum())
        acc += float(np.exp(-_REF_TENSOR[i]).max())
    return acc


def reference_times(calls=REFERENCE_CALLS):
    """Wall times of ``calls`` reference-loop calls, in seconds."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return times


def checks(workload, outcome, tiny):
    """Names of the per-solve checks this outcome fails."""
    failed = []
    if outcome.queries != workload.query_bound(tiny) * outcome.steps:
        failed.append(
            f"queries_per_iter {outcome.queries / outcome.steps} != bound {workload.query_bound(tiny)}"
        )
    if not all(is_distribution(s, tol=1e-9) for s in outcome.strategies):
        failed.append("a returned strategy is not a distribution within 1e-9")
    if not (math.isfinite(outcome.final_adi) and outcome.final_adi >= 0.0):
        failed.append(f"final_adi {outcome.final_adi} is not finite and >= 0")
    return failed


def run(workload_name, seed, trace, tiny, all_seeds):
    if pathlib.Path(adinash.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"adinash imported from {adinash.__file__}, not from {SRC}")
    workload = WORKLOADS[workload_name]
    # the reference loop runs before the set-up, before the cold solve and
    # after it, so it sees the machine at the speed the timed calls saw
    reference = reference_times()
    tracer = Tracer().install() if trace else None

    setup_times = []
    while not setup_times or (
        sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX_CALLS
    ):
        start = time.perf_counter()
        built = workload.build(seed, tiny)
        setup_times.append(time.perf_counter() - start)

    reference += reference_times()
    fitted = []
    seeds = workload.seeds(seed)
    for solver_seed in seeds if all_seeds else seeds[:1]:
        start = time.perf_counter()
        try:
            result = workload.fit(built, solver_seed, tiny)
        except Exception as err:  # a raising solve is a failed operation
            fitted.append((solver_seed, None, 0.0, f"{type(err).__name__}: {err}"))
            continue
        fitted.append((solver_seed, result, time.perf_counter() - start, None))
        if len(fitted) == 1:
            reference += reference_times()
    if tracer is not None:
        tracer.uninstall()

    fits = []
    steps_ms = []
    for solver_seed, result, fit_s, error in fitted:
        record = {"seed": solver_seed, "fit_s": fit_s, "failed": [error] if error else []}
        fits.append(record)
        if result is None:
            continue
        try:
            outcome = workload.outcome(built, result, tiny)
        except Exception as err:  # an unreadable result fails the solve too
            record["failed"] = [f"{type(err).__name__}: {err}"]
            continue
        record["failed"] = checks(workload, outcome, tiny)
        record["queries_per_iter"] = outcome.queries / outcome.steps
        record["final_adi"] = outcome.final_adi
        if outcome.log is not None:
            record["csv_sha256"] = hashlib.sha256(outcome.log.csv_bytes()).hexdigest()
        steps_ms.append(step_times_ms(outcome, fit_s))

    steps_ms = np.concatenate(steps_ms) if steps_ms else np.zeros(1)
    out = {
        "traced": bool(trace),
        "reference_s": statistics.median(reference),
        "setup_s": statistics.median(setup_times),
        "setup_calls": len(setup_times),
        "fits": fits,
        "iter_ms_p50": float(np.percentile(steps_ms, 50)),
        "iter_ms_p99": float(np.percentile(steps_ms, 99)),
        "iterations": int(steps_ms.size),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--all-seeds", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.trace, args.tiny, args.all_seeds)))


if __name__ == "__main__":
    main()
