#!/usr/bin/env python3
"""Wall-clock benchmark of the SkinnerDB query path.

Builds the benchmark (perfbench/CMakeLists.txt compiles the library from
src/ in Release mode into .bench_build/) and runs one workload:

    python3 perfbench/run.py --workload job-cold --seed 1 --seconds 30 --trace 0

Workloads: job-cold, tpch-udf (see BENCHMARK.json and
perfbench/design.json). The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Build output and progress
go to stderr. `--selftest` runs only the self-tests of the helpers.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")

DEFAULT_SEED = 1
# A run may take 180 s; the window plus set-up and checks stay well inside.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["job-cold", "tpch-udf"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        os.makedirs(WORK_DIR, exist_ok=True)
        # A run that was killed leaves its database directory behind.
        for name in os.listdir(WORK_DIR):
            if name.startswith("run-"):
                shutil.rmtree(os.path.join(WORK_DIR, name), ignore_errors=True)
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", WORK_DIR]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
