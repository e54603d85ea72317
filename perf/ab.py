"""Alternating A/B benchmark runs of a parent tree against this tree.

    python3 perf/ab.py --parent /path/to/parent --workload covariant_general_sampled \
        --pairs 10 --out perf/my-change

Each pair runs ``python3 <tree>/bench/run.py --workload W --seed N --seconds 30``
once on each tree, one run at a time; the tree that goes first flips from
pair to pair, so a drift of the machine's speed falls on both sides. Pair k
uses seed k, and pairs continue after the last one already in the output
file, so a second call adds pairs. Every run is appended as one JSON line to
``<out>/<workload>.jsonl``:

    {"tree": "parent" | "change", "pair": k, "seed": k, "trace": 0,
     "result": <run.py's result object>, "csv_sha256": [...], "exit": code}

Then, over every pair in the file, each end-to-end metric's median and
quartiles per tree are printed with how many pairs the change was lower in,
and any pair whose two trees disagree on the IterateLog CSV digests is
flagged.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

CHANGE = pathlib.Path(__file__).resolve().parent.parent
SECONDS = 30


def run(tree, workload, seed):
    """One bench/run.py call on `tree`: (result, csv digests, exit code)."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    details = [json.loads(line[len("details "):]) for line in lines if line.startswith("details ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
        print(f"{tree}: no result, exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
    digests = details[0]["csv_sha256"] if details else None
    return result, digests, proc.returncode


def load(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(records):
    """Per-metric medians, quartiles and the change-lower count over complete
    pairs; lines to print."""
    by_pair = {}
    for r in records:
        by_pair.setdefault(r["pair"], {})[r["tree"]] = r
    pairs = [p for p in sorted(by_pair) if {"parent", "change"} <= set(by_pair[p])]
    out = [f"{len(pairs)} complete pairs"]
    if not pairs:
        return out
    names = []
    for p in pairs:
        for tree in ("parent", "change"):
            result = by_pair[p][tree]["result"] or {}
            names += [n for n in result.get("metrics", {}) if n not in names]
    for name in names:
        values = {"parent": [], "change": []}
        lower = 0
        complete = 0
        for p in pairs:
            got = {}
            for tree in values:
                metrics = (by_pair[p][tree]["result"] or {}).get("metrics", {})
                if name in metrics:
                    got[tree] = metrics[name]["value"]
                    values[tree].append(got[tree])
            if len(got) == 2:
                complete += 1
                lower += got["change"] < got["parent"]
        parts = []
        for tree, vals in values.items():
            if vals:
                q1, q2, q3 = quartiles(vals)
                parts.append(f"{tree} {q2:.6g} [{q1:.6g}, {q3:.6g}]")
        out.append(f"  {name:<18} {'  '.join(parts)}  change lower in {lower} of {complete}")
    for p in pairs:
        parent, change = by_pair[p]["parent"], by_pair[p]["change"]
        if parent["csv_sha256"] != change["csv_sha256"]:
            out.append(f"  DIGESTS DIFFER in pair {p} (seed {parent['seed']})")
        for tree, r in (("parent", parent), ("change", change)):
            if r["exit"] != 0 or not (r["result"] or {}).get("correct", False):
                out.append(f"  pair {p}: {tree} exit {r['exit']}, not correct")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True, help="pairs to add")
    parser.add_argument("--out", required=True, help="directory of the .jsonl record")
    args = parser.parse_args(argv)
    trees = {"parent": pathlib.Path(args.parent).resolve(), "change": CHANGE}
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}.jsonl"
    start = max((r["pair"] for r in load(path)), default=-1) + 1
    for pair in range(start, start + args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for tree in order:
            result, digests, code = run(trees[tree], args.workload, pair)
            record = {"tree": tree, "pair": pair, "seed": pair, "trace": 0,
                      "result": result, "csv_sha256": digests, "exit": code}
            with path.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
            step = ((result or {}).get("metrics", {}).get("iter_ms_p50") or {}).get("value")
            print(f"pair {pair} {tree}: exit {code}, iter_ms_p50 {step}", file=sys.stderr)
    print(f"{args.workload}: {path}")
    print("\n".join(summarize(load(path))))


if __name__ == "__main__":
    main()
