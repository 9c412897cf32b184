#!/usr/bin/env python3
"""Builds melbench, the libmel benchmark program, and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the checkout root. melbench is built with CMake into
.bench_build/perfbench (the library comes from the checkout's own sources);
build output goes to stderr. Every entry of perfbench/spec.json "params" is
passed to melbench. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; its metric names are checked
against BENCHMARK.json before it is printed. Exit status 0 means a valid run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
MELBENCH = os.path.join(BUILD, "melbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "melbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def print_predictions(spec, workload):
    print(f"workload {workload}: {spec['workloads'][workload]}")
    print("per-layer predictions (layer: metrics -> should move / should not move)")
    for row in spec["predictions"]:
        print(f"  {row['layer']}: {row['metrics']}")
        print(f"      moves: {row['should_move']}; stays: {row['should_not_move']}")
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload}", file=sys.stderr)
        return 2
    if not build():
        print("build failed", file=sys.stderr)
        return 2

    command = [MELBENCH, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.csv")]
        print_predictions(spec, args.workload)
    for key, value in spec["params"].items():
        command += [f"--{key}", str(value)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("melbench timed out", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        print(f"melbench printed no result (exit {done.returncode})", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    missing = set(expected_metrics(args.trace)) ^ set(result["metrics"])
    if missing:
        print(f"metric set differs from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
