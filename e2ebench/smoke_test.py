#!/usr/bin/env python3
"""Smoke and determinism test of the end-to-end benchmark.

    python3 e2ebench/smoke_test.py

Run it from the repository root. For every workload and for both the
development seed and the held-out seed, it runs a short fixed-length pass
(--ops) twice with --trace 0 and twice with --trace 1. Every run must exit
0, and the two runs of a pair must agree exactly on everything that is not
a host time: attempted/failed counts, grant_ratio, sim_response_mean, the
flow.* counts, journal and snapshot bytes, and the spill ratio.
"""
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

DEV_SEED = 1
HELD_OUT_SEED = 7919
SHORT_OPS = {
    "des-omega256": 1,       # simulation runs of a fixed horizon
    "solve-omega8k": 3,      # scheduling cycles
    "rsind-omega64": 3000,   # daemon commands
    "fed-4x64": 2000,        # federation cycles
}
DETERMINISTIC = {
    0: ["grant_ratio", "sim_response_mean"],
    1: ["flow.operations", "flow.ops_per_arc", "flow.bfs_phases",
        "flow.augmentations", "flow.repair_waste",
        "svc.journal_bytes_per_cmd", "svc.snapshot_bytes",
        "fed.spill_moved_ratio"],
}


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--ops", str(SHORT_OPS[workload])],
        capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d trace %d exited %d:\n%s%s" % (
            workload, seed, trace, done.returncode, done.stdout, done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def fingerprint(result, trace):
    values = {"attempted": result["attempted"], "failed": result["failed"]}
    for name in DETERMINISTIC[trace]:
        values[name] = result["metrics"][name]["value"]
    return values


def main():
    failures = 0
    for workload in SHORT_OPS:
        for seed in (DEV_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                first = fingerprint(run(workload, seed, trace), trace)
                second = fingerprint(run(workload, seed, trace), trace)
                same = first == second
                failures += 0 if same else 1
                print("%-16s seed %-5d trace %d  %s  %s" % (
                    workload, seed, trace, "same" if same else "DIFFERENT",
                    json.dumps(first if same else [first, second])))
                sys.stdout.flush()
    print("smoke test: %s" % ("PASS" if failures == 0 else
                              "%d pair(s) differ" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
