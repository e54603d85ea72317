"""Write one untraced ``BENCH_<workload>.json`` per benchmark workload for a tree.

    python3 perf/bench_json.py --tree /path/to/tree --out perf/my-change/parent
    python3 perf/bench_json.py --tree . --out perf/my-change/change

Imports ``measure`` from the tree's own ``bench/baseline.py``, so the run
uses that tree's ``bench/run.py`` and ``src``, and records each workload of
this tree's ``BENCHMARK.json`` at its ``run_seconds``, seed 0 and
``--trace 0``. A record holds the run's result line and its details
(per-repetition figures, IterateLog CSV digests, machine and versions), in
``bench/baseline.py``'s form without the traced run. Run the two trees one
after the other on an otherwise idle machine; ``bench/`` itself is not
touched.
"""

import argparse
import importlib.util
import json
import pathlib

CHANGE = pathlib.Path(__file__).resolve().parent.parent


def load_measure(tree):
    """``measure`` from ``<tree>/bench/baseline.py``."""
    path = tree / "bench" / "baseline.py"
    spec = importlib.util.spec_from_file_location(f"baseline_{abs(hash(tree))}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.measure


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", required=True, help="root of the tree to measure")
    parser.add_argument("--out", required=True, help="directory for the BENCH files")
    args = parser.parse_args(argv)
    tree = pathlib.Path(args.tree).resolve()
    measure = load_measure(tree)
    spec = json.loads((CHANGE / "BENCHMARK.json").read_text())
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for workload in spec["workloads"]:
        name = workload["name"]
        record = {
            "workload": name,
            "why": workload["why"],
            "untraced": measure(name, 0, spec["run_seconds"], 0),
        }
        path = out / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        metrics = record["untraced"]["result"]["metrics"]
        summary = "  ".join(f"{k} {v['value']:.6g}" for k, v in metrics.items())
        print(f"wrote {path}: {summary}")


if __name__ == "__main__":
    main()
