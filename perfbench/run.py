#!/usr/bin/env python3
"""Builds the benchmark driver and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The driver and the histest library under src/ are built as a Release build
into .bench_build/ at the repository root (configured on first use, brought
up to date on every call). Build output goes to stderr, so the last line of
stdout is the driver's JSON result. All arguments are passed to the driver;
see README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "histest_perfbench")
JOBS = "3"


def run_build_step(cmd, env):
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def build():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp  # compiler scratch files stay inside the checkout
    env["CMAKE_BUILD_PARALLEL_LEVEL"] = JOBS  # also bounds the inner build
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        rc = run_build_step(cmd, env)
        if rc != 0:
            return rc
    return run_build_step(["cmake", "--build", BUILD, "-j", JOBS], env)


def main():
    rc = build()
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
