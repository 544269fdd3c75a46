#!/usr/bin/env python3
"""Shows that each correctness check of the benchmark catches a corrupted
output: runs the driver once per fault and expects `correct` to read false
with the matching check named on stderr, then runs one clean traced
many-bins round and expects `correct` to read true.

    python3 perfbench/test_faults.py

Exits 0 when every case behaves as expected. Takes about a minute.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

# (fault, workload, trace, text the failed check prints)
CASES = [
    ("far-as-in-class", "many-bins", "0", "fewer than 2/3"),
    ("drop-sketch-row", "column-summary", "0", "ColumnSketch counts differ"),
    ("shift-selectivity", "column-summary", "0", "small: right in 0 of 1"),
    ("traced-samples", "many-bins", "1", "traced pass: operation 0 differs"),
    (None, "many-bins", "1", None),
]


def run(fault, workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", trace]
    if fault:
        cmd += ["--inject", fault]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    return p.returncode, result, p.stderr


def main():
    failures = 0
    for fault, workload, trace, needle in CASES:
        rc, result, stderr = run(fault, workload, trace)
        name = fault or "clean"
        if result is None:
            print(f"FAIL {name}: exit {rc} without a result\n{stderr[-2000:]}")
            failures += 1
            continue
        if fault is None:
            ok = result["correct"] is True
        else:
            ok = result["correct"] is False and needle in stderr
        print(f"{'ok  ' if ok else 'FAIL'} {name} on {workload}: "
              f"correct={result['correct']}")
        if not ok:
            print(stderr[-2000:])
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
