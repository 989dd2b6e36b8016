#!/usr/bin/env python3
"""Build and run the MCFS end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cities_cold --seed 1 --seconds 20 --trace 0

Workloads: cities_cold, serve_read, serve_churn (see perfbench/README.md).
The first call configures and builds perfbench/ (a CMake package that
compiles ../src) into .bench_build/perfbench; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. The exit code is nonzero when the build
fails or any answer fails its check.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mcfs_perf")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build mcfs_perf; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cities_cold", "serve_read", "serve_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", choices=["0", "1"], default="0",
                        help="tiny scales, for the benchmark's own test")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--smoke", args.smoke,
               "--reference", os.path.join(HERE, "cities_reference.txt"),
               "--trace-dir", os.path.join(BUILD, "traces")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
