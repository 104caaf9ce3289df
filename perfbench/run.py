#!/usr/bin/env python3
"""Builds and runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload batch_100k --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) with CMake into .bench_build/
at the repository root, runs the hlm_perfbench binary, and prints as its
last line one JSON object: correct, attempted, failed, and the metrics
BENCHMARK.json lists -- the end_to_end ones with --trace 0, the per_layer
ones with --trace 1 -- each with its unit. Exits non-zero if the build
fails, a correctness check fails, or an end-to-end metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds incrementally. Output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "hlm_perfbench",
                  "--parallel", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            if step is steps[0] and len(steps) == 2:
                # A failed configure leaves a cache that would skip it next time.
                shutil.rmtree(build_dir, ignore_errors=True)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("unknown workload: " + args.workload, file=sys.stderr)
        return 2

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(build_dir):
        print("benchmark build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work")
    command = [os.path.join(build_dir, "hlm_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work_dir", work_dir,
               "--golden", os.path.join(HERE, "golden_batch.tsv")]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        print("hlm_perfbench printed no result (exit %d)" % done.returncode,
              file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = raw["metrics"].get(metric["name"])
        if value is None:
            if not args.trace:
                print("end-to-end metric %s was not measured" % metric["name"],
                      file=sys.stderr)
                return 1
            value = 0  # this workload does not exercise the layer
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for name, entry in metrics.items():
        print("%-40s %16.6f %s" % (name, entry["value"], entry["unit"]))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
