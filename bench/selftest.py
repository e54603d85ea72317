"""Seconds-long self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload at tiny size, untraced and traced, and asserts that each
result line carries exactly the metrics and units BENCHMARK.json declares,
that every per-solve check passed, and that traced and untraced runs produce
the same IterateLog digests. It also asserts that the tracer refuses a
missing target, and that the benchmark fails without a result when the
package source is absent.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, trace, root=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-2].removeprefix("details "))
    return json.loads(lines[-1]), details


def check_workload(name, spec):
    digests = []
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run(name, trace)
        assert proc.returncode == 0, f"{name} trace {trace} exited {proc.returncode}: {proc.stderr}"
        result, details = parse(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        units = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == units, f"{name} trace {trace}: metrics {sorted(set(got) ^ set(units))} differ"
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        assert details["deterministic"], f"{name} trace {trace}: repetitions disagree"
        digests.append(details["csv_sha256"])
    assert digests[0] == digests[1], f"{name}: traced and untraced IterateLog digests differ"


def check_tracer_refuses_missing_target():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from adinash.oracles import TensorOracle
    from tracer import TARGETS, Tracer

    original = TensorOracle.pair_payoffs
    bogus = TARGETS + (("oracles.block", "adinash.oracles", "TensorOracle.no_such_method"),)
    try:
        Tracer(bogus).install()
    except LookupError:
        pass
    else:
        raise AssertionError("tracer installed over a missing target")
    assert TensorOracle.pair_payoffs is original, "a failed install left a patch behind"


def check_fails_without_source():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, pathlib.Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("covariant_general_sampled", 0, root=tmp)
    assert proc.returncode != 0 and not proc.stdout.strip(), "ran without the package source"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec)
        print(f"ok {workload['name']}")
    check_tracer_refuses_missing_target()
    print("ok tracer refuses a missing target")
    check_fails_without_source()
    print("ok fails without the package source")


if __name__ == "__main__":
    main()
