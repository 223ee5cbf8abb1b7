#!/usr/bin/env python3
"""Build the sidefx benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark executable is built with
dune into .bench_build (release profile, so a warning introduced by a
later change does not stop the benchmark), then run once.  Its last line
of standard output is the result JSON; build output goes to standard
error.  A traced run (--trace 1) also writes its spans to
.bench_build/traces/<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORKLOADS = ["lint_scalar", "batch_scale", "serve_session"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/sidefx_bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "sidefx_bench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
