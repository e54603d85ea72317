"""Record the benchmark's baseline: every workload, untraced and traced.

    python3 bench/baseline.py [--seed 0]

Runs ``run.py`` for each workload in BENCHMARK.json with its ``run_seconds``
and writes ``bench/baseline/BENCH_<workload>.json`` holding both result
lines and their details (per-repetition figures, IterateLog CSV digests,
machine and versions).
"""

import argparse
import json
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def measure(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return {
        "command": cmd[1:],
        "exit_code": proc.returncode,
        "result": json.loads(lines[-1]),
        "details": json.loads(lines[-2].removeprefix("details ")),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = BENCH / "baseline"
    out_dir.mkdir(exist_ok=True)
    for workload in spec["workloads"]:
        name = workload["name"]
        record = {
            "workload": name,
            "why": workload["why"],
            "untraced": measure(name, args.seed, spec["run_seconds"], 0),
            "traced": measure(name, args.seed, spec["run_seconds"], 1),
        }
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
