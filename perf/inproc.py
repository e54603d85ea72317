"""Alternating in-process timing of a parent tree against this tree.

    python3 perf/inproc.py --parent /path/to/parent --workload el_farol_warmup_exact \
        --pairs 20 --out perf/my-change

Both trees run one ``bench/workloads.py`` workload inside this one process,
so a change of a few percent is not lost in the spread between fresh
interpreters. Before each run every ``adinash*`` module is dropped from
``sys.modules`` and the run's tree's ``src`` goes first on ``sys.path``, so
the run imports that tree's code with empty module-level caches. A run
builds the workload's game (untimed) and times its ``fit`` on the first
solver seed with ``perf_counter``; ``iter_ms_p50`` is the median step of
that fit, as ``bench/run.py`` reads it. Pair k uses seed k, and the tree that
goes first flips from pair to pair; one untimed run of each tree comes
first. BLAS and OpenMP run one thread, and ``--cpu`` pins the process to
one CPU.

Every run is appended as one JSON line to ``<out>/<workload>.inproc.jsonl``
in ``perf/ab.py``'s record form, with ``fit_s``, ``iter_ms_p50`` and
``final_adi`` as the metrics and the sha256 of the final strategies as the
digest. Then ``perf/ab.py``'s summary is printed over every pair in the
file: each tree's median and quartiles, how many pairs the change was lower
in, and any pair whose trees' strategies differ. Pairs continue after the
last one already in the file. A copy of this tree as ``--parent`` measures
the spread of a tree against itself.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

CHANGE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHANGE / "bench"))

from ab import load, summarize  # noqa: E402
from workloads import WORKLOADS, step_times_ms  # noqa: E402


def use_tree(tree):
    """Drop every adinash module, and every sys.path entry that holds an
    adinash package, and put `tree`'s src first on sys.path."""
    for name in [n for n in sys.modules if n == "adinash" or n.startswith("adinash.")]:
        del sys.modules[name]
    others = [p for p in sys.path if not (pathlib.Path(p or ".") / "adinash").is_dir()]
    sys.path[:] = [str(tree / "src"), *others]
    importlib.invalidate_caches()


def run(tree, workload, seed):
    """One cold fit of `workload` on `tree`: its record's result and digest,
    in the form ``perf/ab.py`` records."""
    use_tree(tree)
    importlib.import_module("adinash")
    built = workload.build(seed, False)
    solver_seed = workload.seeds(seed)[0]
    gc.collect()
    start = time.perf_counter()
    fitted = workload.fit(built, solver_seed, False)
    fit_s = time.perf_counter() - start
    outcome = workload.outcome(built, fitted, False)
    values = {
        "fit_s": fit_s,
        "iter_ms_p50": float(np.median(step_times_ms(outcome, fit_s))),
        "final_adi": outcome.final_adi,
    }
    result = {"correct": True, "metrics": {k: {"value": v} for k, v in values.items()}}
    digest = hashlib.sha256(b"".join(np.asarray(s).tobytes() for s in outcome.strategies))
    return {"result": result, "csv_sha256": [digest.hexdigest()], "exit": 0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent tree")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, required=True, help="pairs to add")
    parser.add_argument("--out", required=True, help="directory of the .jsonl record")
    parser.add_argument("--cpu", type=int, help="pin the process to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    trees = {"parent": pathlib.Path(args.parent).resolve(), "change": CHANGE}
    workload = WORKLOADS[args.workload]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}.inproc.jsonl"
    start = max((r["pair"] for r in load(path)), default=-1) + 1
    for tree in trees.values():  # untimed: the first run of a process pays its warm-up
        run(tree, workload, start)
    for pair in range(start, start + args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for tree in order:
            record = {"tree": tree, "pair": pair, "seed": pair, "trace": 0,
                      **run(trees[tree], workload, pair)}
            with path.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
            fit_s = record["result"]["metrics"]["fit_s"]["value"]
            print(f"pair {pair} {tree}: fit_s {fit_s:.4f}", file=sys.stderr)
    print(f"{args.workload}: {path}")
    print("\n".join(summarize(load(path))))


if __name__ == "__main__":
    main()
