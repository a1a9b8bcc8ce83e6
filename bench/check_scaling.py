#!/usr/bin/env python3
"""Parallel-scaling gate for the CI bench-scaling job.

Reads a benchmark JSON (bench_loading's, filtered to the workload),
computes the 4-thread wall-clock speedup of the workload's
{workload}/1/1 and {workload}/4/1 rows (by default BM_ParallelIngest,
multi-document ingest), and writes a machine-readable
scaling_report.json — num_cpus, per-configuration real and CPU time,
the speedup, and the CPU-time ratio of the two rows. minibench's
cpu_time is process CPU (CLOCK_PROCESS_CPUTIME_ID, every thread), so
that ratio is the growth in total CPU spent at 4 threads, not the
calling thread's share.

Gate: on a host with >= 2 CPUs the speedup must reach --min-speedup
(default 1.5). Single-core hosts only report.
"""
import argparse
import json
import sys


def pick(benchmarks, name):
    # Prefer the mean aggregate when the run used --benchmark_repetitions.
    for b in benchmarks:
        if b["name"] == f"{name}_mean":
            return b
    for b in benchmarks:
        if b["name"] == name:
            return b
    raise KeyError(f"benchmark {name!r} not in results")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("results", help="benchmark JSON output")
    parser.add_argument("--out", default="scaling_report.json")
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--workload", default="BM_ParallelIngest")
    args = parser.parse_args()

    data = json.load(open(args.results))
    num_cpus = data["context"]["num_cpus"]
    benchmarks = data["benchmarks"]
    serial = pick(benchmarks, f"{args.workload}/1/1")
    threaded = pick(benchmarks, f"{args.workload}/4/1")
    speedup = serial["real_time"] / threaded["real_time"]
    process_cpu_growth = threaded["cpu_time"] / serial["cpu_time"]

    report = {
        "num_cpus": num_cpus,
        "workload": args.workload,
        "time_unit": serial["time_unit"],
        "serial": {"real_time": serial["real_time"],
                   "cpu_time": serial["cpu_time"]},
        "four_threads": {"real_time": threaded["real_time"],
                         "cpu_time": threaded["cpu_time"]},
        "wall_clock_speedup_4t": speedup,
        "process_cpu_growth_4t": process_cpu_growth,
        "min_speedup": args.min_speedup,
        "gated": num_cpus >= 2,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"num_cpus={num_cpus} 4-thread wall-clock speedup={speedup:.2f}x "
          f"(process cpu growth {process_cpu_growth:.2f}x); "
          f"report -> {args.out}")

    if num_cpus >= 2 and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < {args.min_speedup}x on a "
              f"{num_cpus}-core host", file=sys.stderr)
        return 1
    if num_cpus < 2:
        print("single-core host: reporting only, gate skipped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
