#!/usr/bin/env python3
"""Two-clock benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload dense_solve --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. Builds the harness from source into
.bench_build/perfbench (a no-op when it is up to date), then runs it.
Build output goes to stderr; the harness prints its progress lines and,
as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero without a result when the
sources are missing, the build fails or a check cannot be made.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
WORKLOADS = ("dense_solve", "paper_sweep", "fleet_faulted")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under %s/src; run from the "
                 "root of a full checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a whole number >= 0")
    build()
    sys.stdout.flush()
    return subprocess.run([HARNESS, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(args.seconds),
                           "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
