"""How far each fixed-seed digest run moved between two trees.

    python3 perf/moved.py --before /path/to/parent/src [--after src] > moved.txt

Runs every ``perf/digests.py`` run once per tree, each tree in its own child
process, and keeps what the run's digest hashes: a solve's metric CSV, final
strategies and query count, the warm-up's and fills' arrays with any query
count appended, the other runs' raw payload. It
prints one line for every run whose payload differs between the trees: for
``adi_exact``, ``adi_estimate`` and ``adi_estimate_unreg``, the largest
relative change over the CSV's cells (|a - b| / max(|a|, |b|), 0 where both
are 0) and the largest absolute change, then the same for the final
strategies, then the rows whose ``profile_hash`` differs, then a query count
(the solver's ``queries_``, or the one a fill run appends) where it moved,
and "payload differs" where none of these fields moved. A declared numeric
change lists these lines; runs absent from the output kept their bytes.
"""

import argparse
import csv
import io
import pathlib
import pickle
import subprocess
import sys

import numpy as np

PERF = pathlib.Path(__file__).resolve().parent
COLUMNS = ("adi_exact", "adi_estimate", "adi_estimate_unreg")


def dump(src):
    """Every run's payload under the tree at `src`, pickled to stdout: the
    unpickled encoding and the bytes a thunk appends after it (an oracle's
    query count)."""
    sys.path.insert(0, str(pathlib.Path(src).resolve()))
    sys.path.insert(0, str(PERF))
    import digests

    def fitted(solver):
        floats = np.concatenate([np.ravel(s) for s in solver.profile_])
        queries = getattr(solver, "queries_", None)
        return pickle.dumps(("fit", solver.log_.csv_bytes().decode(), floats, queries))

    def strategy_floats(strategies):
        return pickle.dumps(("floats", np.concatenate([np.ravel(s) for s in strategies])))

    payloads = {}
    for name, thunk in digests.runs(fitted, strategy_floats):
        try:
            payload = thunk()
        except Exception as err:
            payload = f"error {type(err).__name__}: {err}".encode()
        stream = io.BytesIO(payload)
        try:
            payloads[name] = (pickle.load(stream), stream.read())
        except Exception:
            payloads[name] = (("raw", payload), b"")
    sys.stdout.buffer.write(pickle.dumps(payloads))


def load(src):
    proc = subprocess.run(
        [sys.executable, __file__, "--dump", str(src)], capture_output=True, check=True
    )
    return pickle.loads(proc.stdout)


def change(a, b):
    """(largest relative change, largest absolute change) between float
    arrays of one shape; NaN where both are NaN counts as no change."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_nan = np.isnan(a) & np.isnan(b)
    a, b = np.where(both_nan, 0.0, a), np.where(both_nan, 0.0, b)
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0.0)
    return float(rel.max(initial=0.0)), float(diff.max(initial=0.0))


def rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def describe(before, after):
    """One line's worth of fields for a moved run, each a change between the
    trees; "payload differs" where the fields show no change."""
    (old, old_tail), (new, new_tail) = before, after
    fields, moved = [], []

    def field(label, a, b):
        rel, dist = change(a, b)
        moved.append(dist > 0.0)
        fields.append(f"{label} rel {rel:.2g} abs {dist:.2g}")

    def count(label, a, b):
        moved.append(a != b)
        if a != b:
            fields.append(f"{label} {a} -> {b}")

    kind = old[0]
    if kind != new[0] or kind == "raw":
        return "payload differs"
    if kind == "floats":
        if old[1].shape != new[1].shape:
            return "strategies differ in shape"
        field("strategies", old[1], new[1])
    else:
        old_rows, new_rows = rows(old[1]), rows(new[1])
        if len(old_rows) != len(new_rows):
            return f"{len(old_rows)} -> {len(new_rows)} CSV rows"
        for column in COLUMNS:
            field(column, [float(r[column]) for r in old_rows], [float(r[column]) for r in new_rows])
        field("strategies", old[2], new[2])
        hashes = sum(o["profile_hash"] != n["profile_hash"] for o, n in zip(old_rows, new_rows))
        moved.append(hashes > 0)
        fields.append(f"profile_hash {hashes}/{len(old_rows)} rows")
        count("queries_", old[3], new[3])
    count("queries", old_tail.decode(), new_tail.decode())
    if not any(moved):
        fields.append("payload differs")
    return "; ".join(fields)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="the src/ directory of the parent tree")
    parser.add_argument("--after", default=str(PERF.parent / "src"))
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        dump(args.dump)
        return
    before, after = load(args.before), load(args.after)
    moved = 0
    for name, old in before.items():
        new = after[name]
        if pickle.dumps(old) == pickle.dumps(new):
            continue
        moved += 1
        print(f"{name}: {describe(old, new)}")
    print(f"{moved} of {len(before)} runs moved")


if __name__ == "__main__":
    main()
