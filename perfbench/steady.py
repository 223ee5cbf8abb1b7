#!/usr/bin/env python3
"""Run one workload repeatedly and report how steady its metrics are.

    python3 perfbench/steady.py --workload NAME [--runs 10]

Run from the repository root.  Run k uses seed k.  For every end-to-end
metric it prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread, the quartile distance
as a share of the median, next to the metric's bound in BENCHMARK.json.
For every run it prints the operations attempted and failed, and it
reports whether the failed share is the same in every run.  Each run
measures for BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    shares = set()
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d: run failed with exit code %d" % (seed, out.returncode))
        result = json.loads(lines[-1])
        shares.add(result["failed"] / result["attempted"])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]),
            flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])

    print("\n%-28s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, (unit, vs) in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-28s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
            name, med, q1, q3, spread, "-" if bound is None else bound, unit))
    print("\nfailed share the same in every run: %s" % (len(shares) == 1))


if __name__ == "__main__":
    main()
