"""Python calls per step of each benchmark workload, a cost that does not
depend on the machine's speed.

    python3 perf/calls.py > after.txt
    python3 perf/calls.py --tree /path/to/parent > before.txt
    diff before.txt after.txt

For each workload in ``bench/workloads.py`` the tree's ``adinash`` is
imported afresh (every ``adinash*`` module dropped first, so module-level
caches start empty), the game is built outside the count, and the fit on
the workload's first solver seed runs under ``sys.setprofile``. Every
``call`` event (a Python function or generator frame) and ``c_call`` event
(a builtin or C function), the two kinds cProfile counts, is counted. A
line reads ``<workload>  <calls per step>  <calls>  <steps>``; the count per
step divides the whole fit, its one-time work included, by its steps. For a
fixed tree, numpy and Python the counts are the same on every run.
"""

import argparse
import pathlib
import sys

CHANGE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHANGE / "perf"))
sys.path.insert(0, str(CHANGE / "bench"))

from inproc import use_tree  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTED = frozenset({"call", "c_call"})


def count_calls(tree, workload):
    """(calls, steps) of one cold fit of `workload` on `tree`."""
    use_tree(tree)
    built = workload.build(0, False)
    seed = workload.seeds(0)[0]
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in COUNTED:
            calls += 1

    sys.setprofile(profile)
    try:
        fitted = workload.fit(built, seed, False)
    finally:
        sys.setprofile(None)
    return calls, workload.outcome(built, fitted, False).steps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=str(CHANGE), help="root of the tree to count")
    args = parser.parse_args(argv)
    tree = pathlib.Path(args.tree).resolve()
    for name in sorted(WORKLOADS):
        calls, steps = count_calls(tree, WORKLOADS[name])
        print(f"{name}  {calls / steps:.2f}  {calls}  {steps}")


if __name__ == "__main__":
    main()
