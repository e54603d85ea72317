"""Benchmark entry point: one workload, one seed, one measurement.

    python3 bench/run.py --workload blotto_sym_sampled --seed 0 --seconds 20 --trace 0

Each repetition runs in its own fresh interpreter (``worker.py``), one at a
time, with BLAS and OpenMP pinned to one thread, so every repetition's solve
is cold: module-level caches such as the multiset rank tables start empty.
Every repetition solves the first solver seed; the first repetition also
solves the workload's other seeds, once, for ``final_adi`` and the digest
record. A new repetition starts while it is expected to end within
``--seconds`` (at least three run, or four when traced). With ``--trace 0``
the timings are the medians over repetitions; with ``--trace 1`` untraced and
traced repetitions alternate and the per-layer metrics are the medians over
the traced ones.

A shared machine's speed drifts by a third for tens of seconds at a time, so
every time a repetition measures is scaled by the square root of how fast
that repetition ran a fixed reference loop (``worker.reference_times``)
against the loop's nominal time, ``REFERENCE_NOMINAL_S``. The uncorrected
medians are kept in the ``details`` line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
prefixed ``details``, records per-repetition figures, the IterateLog CSV
digests and the machine. The exit code is 1 when any check fails and 2 when a
repetition cannot run at all (then no result is printed).
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREADS = "1"
PINNED = {
    name: THREADS
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# the reference loop's time per call at the shared machine's usual speed
# (2-vCPU Intel Xeon VM); times are reported as if every repetition ran at it
REFERENCE_NOMINAL_S = 0.0065
# the workloads' times move by about half the reference loop's share when
# the machine speeds up or slows down (log-log slopes of 0.2-0.9 measured per
# workload), so the correction is the square root of the speed ratio
SPEED_EXPONENT = 0.5
RUN_LIMIT_S = 150.0  # no repetition starts after this; the whole run must end by 180 s

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "iter_ms_p50": "ms",
    "queries_per_iter": "queries",
    "final_adi": "payoff",
    "peak_rss_mb": "MiB",
}


def per_layer_units():
    units = {}
    for name in Tracer().metrics():
        if name == "oracles.queries":
            units[name] = "queries"
        else:
            units[name] = "count" if name.endswith(".calls") else "ms"
    units["solvers.iter_ms_p99"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "threads": THREADS,
    }


def repetition(workload, seed, traced, tiny, all_seeds, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **PINNED)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if tiny:
        cmd.append("--tiny")
    if all_seeds:
        cmd.append("--all-seeds")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"repetition exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return float(statistics.median(values))


def timed(reps, get):
    """Median over repetitions of a time, corrected to the nominal speed."""
    return median(
        [get(r) * (REFERENCE_NOMINAL_S / r["reference_s"]) ** SPEED_EXPONENT for r in reps]
    )


def summarize(reps, trace):
    """(correct, attempted, failed, metrics, details) over all repetitions."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    fits = [f for r in reps for f in r["fits"]]
    failed = sum(1 for f in fits if f["failed"])
    # every repetition solves the first seed, so its log and result must
    # agree byte for byte across processes, traced or not
    cold = {(r["fits"][0].get("csv_sha256"), r["fits"][0].get("final_adi")) for r in reps}
    deterministic = len(cold) == 1
    first = reps[0]["fits"]  # the repetition that solved every seed

    def cold_fit(r):
        return r["fits"][0]["fit_s"]

    if trace:
        units = per_layer_units()
        overhead = timed(traced, cold_fit) / timed(plain, cold_fit)
        metrics = {
            name: (timed(traced, lambda r: r["layers"][name]) if units[name] == "ms"
                   else median([r["layers"][name] for r in traced]))
            for name in traced[0]["layers"]
        }
        metrics["solvers.iter_ms_p99"] = timed(plain, lambda r: r["iter_ms_p99"])
        metrics["trace.overhead_pct"] = (overhead - 1.0) * 100.0
    else:
        metrics = {
            "setup_s": timed(plain, lambda r: r["setup_s"]),
            "fit_s": timed(plain, cold_fit),
            "iter_ms_p50": timed(plain, lambda r: r["iter_ms_p50"]),
            "queries_per_iter": median([f.get("queries_per_iter", 0.0) for f in first]),
            "final_adi": statistics.fmean([f["final_adi"] for f in first if "final_adi" in f] or [0.0]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        units = END_TO_END
    details = {
        "machine": {**machine(), **plain[0]["versions"]},
        "deterministic": deterministic,
        # the same medians without the speed correction, for comparison
        "uncorrected": {
            "reference_s": median([r["reference_s"] for r in plain]),
            "setup_s": median([r["setup_s"] for r in plain]),
            "fit_s": median([cold_fit(r) for r in plain]),
            "iter_ms_p50": median([r["iter_ms_p50"] for r in plain]),
        },
        "csv_sha256": [f.get("csv_sha256") for f in first],
        "failures": sorted({msg for f in fits for msg in f["failed"]}),
        "repetitions": reps,
    }
    result_metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    correct = failed == 0 and deterministic
    return correct, len(fits), failed, result_metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small games and few iterations, for the self-test")
    args = parser.parse_args(argv)

    minimum = 4 if args.trace else 3
    start = time.perf_counter()
    reps = []
    last = 0.0  # duration of the latest repetition; the first one is the longest
    while True:
        elapsed = time.perf_counter() - start
        # start another repetition only if it is expected to end in time
        if len(reps) >= minimum and elapsed + last > args.seconds:
            break
        if elapsed > RUN_LIMIT_S:
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        try:
            reps.append(repetition(args.workload, args.seed, traced, args.tiny,
                                   all_seeds=not reps, timeout=175.0 - elapsed))
            last = time.perf_counter() - start - elapsed
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            print(f"benchmark cannot run: {err}", file=sys.stderr)
            return 2
    if len(reps) < 2:
        print("benchmark cannot run: fewer than two repetitions finished", file=sys.stderr)
        return 2

    correct, attempted, failed, metrics, details = summarize(reps, args.trace)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  solves {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  csv_sha256 {' '.join((d or '-')[:16] for d in details['csv_sha256'])}")
    for msg in details["failures"]:
        print(f"  FAILED: {msg}")
    if not details["deterministic"]:
        print("  FAILED: repetitions disagree on the IterateLog CSV or final ADI")
    print("details " + json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
