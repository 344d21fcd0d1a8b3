#!/usr/bin/env python3
# Copyright (c) 2026 The siri Authors. MIT license.
"""End-to-end benchmark of siri-server: builds perfbench/ and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload eth-ledger --seed 1 --seconds 10 --trace 0

Builds the C++ package in perfbench/ (with the library compiled from src/)
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
the benchmark with its scratch data under .bench_run/<workload>. Every metric
is printed as `metric <name> <value> <unit> n=<samples>`; the last line of
stdout is the JSON result. --trace 1 runs the traced half-and-half variant
and reports the per-layer metrics instead of the end-to-end ones.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("eth-ledger", "wiki-collab", "ycsb-cold-read")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "net", "server.h")):
        fail("no siri sources under ./src: run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "tiny"),
                   help="tiny: the self-test size")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)
    run_dir = os.path.join(root, ".bench_run", a.workload)
    cmd = [binary, "--workload=" + a.workload, "--seed=%d" % a.seed,
           "--seconds=%d" % a.seconds, "--trace=%d" % a.trace,
           "--size=" + a.size, "--dir=" + run_dir]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
