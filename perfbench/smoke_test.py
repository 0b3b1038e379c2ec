#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke_test.py

For every workload it runs perfbench/run.py untraced and traced and checks
that each metric BENCHMARK.json declares is printed as a "metric" line with
its unit and lands in the final JSON line, and that the untraced run also
prints latency_p99_ms, failed_frac, backward_err and sigma_rel_err.  Then
it runs each workload with one deliberately corrupted output and checks
that the run fails, counts the output in "failed" and reports a nonzero
failed_frac.  Exits non-zero on the first problem.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
# Printed on every run but not bounded in BENCHMARK.json.
REPORTED = {"latency_p99_ms": "ms", "failed_frac": "ratio", "backward_err": "ratio",
            "sigma_rel_err": "ratio"}
METRIC_LINE = re.compile(r"^metric (\S+) (\S+) = (\S+) (\S+)")


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m and m.group(1) == workload:
            printed[m.group(2)] = (float(m.group(3)), m.group(4))
    return proc.returncode, printed, json.loads(lines[-1])


def expect(ok, what):
    if not ok:
        print(f"smoke_test: FAILED {what}")
        sys.exit(1)


def main():
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in DECLARED[key]}
            code, printed, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(code == 0 and result["correct"], f"{where}: run is not correct")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{where}: attempted/failed")
            expect(set(result["metrics"]) == set(declared),
                   f"{where}: final line holds exactly the declared metrics")
            reported = REPORTED if trace == 0 else {}
            for name, unit in {**declared, **reported}.items():
                expect(name in printed, f"{where}: {name} not printed")
                expect(printed[name][1] == unit,
                       f"{where}: {name} printed in {printed[name][1]}, not {unit}")
            for name, unit in declared.items():
                expect(result["metrics"][name]["unit"] == unit, f"{where}: {name} unit")
            print(f"smoke_test: ok {where}: {len(declared)} metrics")

        code, printed, result = run(workload, 0, "--corrupt")
        expect(code != 0 and not result["correct"], f"{workload}: corrupted run passed")
        expect(result["failed"] >= 1, f"{workload}: corrupted output not counted")
        expect(printed["failed_frac"][0] > 0, f"{workload}: failed_frac is 0")
        print(f"smoke_test: ok {workload} --corrupt: failed={result['failed']}")
    print("smoke_test: all passed")


if __name__ == "__main__":
    main()
