#!/usr/bin/env python3
"""Builds the ZapC two-clock benchmark and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload bulk-snapshot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The harness is compiled from ../src into .bench_build/perfbench (Release).
Build output goes to stderr; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"} printed by the harness.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("bulk-snapshot", "mesh-migrate", "cow-delta-lazy")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: ZapC sources (src/) not found next to "
                         "perfbench/; nothing to build\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target"] + targets)
    for cmd in steps:
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            sys.stderr.write("perfbench: build step failed (%d): %s\n"
                             % (rc, " ".join(cmd)))
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness's own tests")
    args = ap.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 2
        exe = os.path.join(BUILD, "perfbench_selftest")
        if not os.path.isfile(exe):
            sys.stderr.write("perfbench: GoogleTest not found; no selftest\n")
            return 2
        return subprocess.call([exe])

    if args.workload is None:
        ap.error("--workload is required")
    if not build(["zapc_perfbench"]):
        return 2
    cmd = [os.path.join(BUILD, "zapc_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # The harness runs in the foreground; its exit status is ours.
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
