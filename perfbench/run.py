#!/usr/bin/env python3
"""User-facing benchmark of hjsvd: svd(), svd_batch() and the serve layer.

    python3 perfbench/run.py --workload dense-square --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds the benchmark (and the library it
links) into .bench_build/ with CMake, then runs one workload:

  --trace 0  set-up time (median over at least 7 fresh processes, each
             timing its first, cold operation, for 10 s), the timed loop, the
             correctness checks and the end-to-end metrics;
  --trace 1  an untraced and a traced loop, the checks and the per-layer
             metrics; the spans go to .bench_build/spans-<workload>.json.

Every metric is printed as a "metric" line with its unit; the last line of
stdout is one JSON object with "correct", "attempted", "failed" and the
metrics BENCHMARK.json lists for the mode.  Exits non-zero when an output
fails its check.  --tiny and --corrupt serve the smoke test
(perfbench/smoke_test.py).  perfbench/README.md has the details.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
SETUP_MIN_RUNS = 7
SETUP_BUDGET_S = 10.0
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "api" / "svd.hpp").is_file():
        fail(f"no hjsvd sources next to {HERE.name}/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one output before the check")
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads)}")
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    build()

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")

    metrics = {}
    if not args.trace:
        # Each fresh process times one cold set-up; cheap set-ups get more
        # processes, so the median is steady for every workload.
        setups = []
        start = time.monotonic()
        while len(setups) < SETUP_MIN_RUNS or time.monotonic() - start < SETUP_BUDGET_S:
            out = subprocess.run(cmd + ["--setup-only"], stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S, check=True)
            setups.append(float(out.stdout.split()[-1]))
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"metric {args.workload} setup_s = {metrics['setup_s']['value']:.6g} s "
              f"(median over n={len(setups)} fresh processes)")

    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(BUILD / f"spans-{args.workload}.json")]
    if args.corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics.update(result["metrics"])

    missing = [n for n in names if n not in metrics]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: metrics[n] for n in names},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
