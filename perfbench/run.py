#!/usr/bin/env python3
"""Server benchmark entry point.

Builds the program's sources plus the benchmark in this directory
(CMake, Release) under <checkout>/.bench_build/perfbench, runs one
workload in its own process, and relays its output. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. A wrong result or a failed durability check prints
"correct": false and exits 1; a build or setup failure prints no result
and exits 2.

Usage:
    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload read_write --seed 3 --seconds 2 --trace 1 --tiny
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hot_reads", "scan_large", "read_write")
# Keeps one run, with its no-op build check, under three minutes.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns the binary path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "3"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small corpus and repetitions (smoke test)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one reference hash; the run must fail")
    args = parser.parse_args()
    # A terminated runner still stops (subprocess.run kills and waits
    # for the benchmark binary when interrupted) and removes its work
    # directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    if binary is None:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    work = os.path.join(ROOT, ".bench_build", "work",
                        "%s-%d" % (args.workload, os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
