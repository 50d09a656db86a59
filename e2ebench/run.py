#!/usr/bin/env python3
"""Builds the rsin end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--ops N]

Run it from the repository root. The first call configures and builds a
Release tree in .bench_build/ (library, rsind and the e2ebench binary);
later calls only check that the tree is current. The binary's stdout is
passed through, so the last line is its JSON result; the exit code is the
binary's (non-zero when a build step or a correctness check fails).
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORKLOADS = ["des-omega256", "solve-omega8k", "rsind-omega64", "fed-4x64"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock, \
            open(log_path, "a") as build_log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                      "-j", "4"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=build_log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                log("e2ebench: build step timed out: " + " ".join(step))
                return None
            if done.returncode != 0:
                log("e2ebench: build step failed: " + " ".join(step))
                with open(log_path) as text:
                    log("".join(text.readlines()[-30:]))
                return None
    return os.path.join(BUILD_DIR, "e2ebench")


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--ops", type=int, default=0,
                        help="fixed op count instead of a time budget")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    print("env: commit=" + commit(), flush=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--ops", str(args.ops), "--work-dir",
               os.path.join(BUILD_DIR, "work")]
    # Own process group, so a timeout also stops the rsind daemon it forked.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        log("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(output)
    sys.stdout.flush()
    lines = output.strip().splitlines()
    if process.returncode == 0 and not (lines and valid_result(lines[-1])):
        log("e2ebench: the binary printed no result line")
        return 1
    return process.returncode


if __name__ == "__main__":
    sys.exit(main())
