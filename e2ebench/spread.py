#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 e2ebench/spread.py [--workloads a,b] [--seeds 1-10]
                               [--seconds S] [--trace 0|1]

Run it from the repository root. For every workload and metric it prints
the median over the seeds and the inter-quartile range as a share of the
median (statistics.quantiles, n=4): the run-to-run spread that each
end-to-end bound in BENCHMARK.json has to exceed with room to spare.
Exits non-zero if any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    failed = False
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print("%s seed %d FAILED (exit %d)\n%s%s" % (
                    workload, seed, done.returncode, done.stdout, done.stderr))
                failed = True
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s (%s)" % (workload, args.seeds))
        for name, series in values.items():
            med = statistics.median(series)
            if len(series) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of bound %.3f" % bound
            print("  %-28s median %-14.6g spread %.4f%s" % (name, med, spread, flag))
            print("      " + " ".join("%.4g" % v for v in series))
        sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
