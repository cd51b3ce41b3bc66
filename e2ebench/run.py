#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload voice --seed 1 --seconds 36 --trace 0

Configures and builds e2ebench/ (which compiles the Sirius libraries from
src/) into .bench_build, then runs the benchmark binary with the same
arguments. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. With --trace 1 the spans are written to
.bench_build/traces/. Exits non-zero when the build fails or any answer
is wrong.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build")


def run(step):
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    make = ["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs]
    # An existing tree only needs the (incremental) build step.
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) and not run(make):
        return
    for step in (configure, make):
        if run(step):
            sys.exit("e2ebench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [os.path.join(BUILD, "e2e_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
