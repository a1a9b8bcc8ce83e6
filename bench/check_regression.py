#!/usr/bin/env python3
"""Bench-regression gate (run_bench.sh --check).

Compares key metrics in a merged BENCH_results.json against the
checked-in bench/bench_baseline.json. The threshold is deliberately
generous (default 2.5x): hardware and CI noise pass, order-of-magnitude
regressions fail. Only slowdowns fail — improvements are free.

The baseline may also carry a "ratios" section: within-run cpu_time
ratio gates (fast row / slow row <= max_ratio) between benchmark pairs
of the SAME run. These are immune to host-speed differences, so they
hold tight bounds absolute baselines cannot — e.g. the SIMD merge
kernels must beat their forced-scalar companion rows by the recorded
factor. A ratio gate is skipped (not failed) when the fast row's
simd_level counter is 0: the host resolved auto-dispatch to scalar, so
both rows ran identical code.

Results whose harness context reports a non-release benchmark library
(library_build_type != "release") are rejected outright — debug-built
timing harnesses produce numbers that gate nothing meaningful. Set
STANDOFF_BENCH_ALLOW_NON_RELEASE=1 to compare them anyway.

Exit codes: 0 ok, 1 regression / missing metric / unit mismatch /
debug-built benchmark library.
"""
import json
import os
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: check_regression.py <BENCH_results.json> <baseline.json>",
              file=sys.stderr)
        return 2
    results = json.load(open(sys.argv[1]))
    baseline = json.load(open(sys.argv[2]))
    threshold = float(baseline.get("threshold", 2.5))
    failures = []
    checked = 0
    if os.environ.get("STANDOFF_BENCH_ALLOW_NON_RELEASE") != "1":
        for binary, run in results.items():
            build = run.get("context", {}).get("library_build_type")
            if build != "release":
                failures.append(
                    f"{binary}: benchmark library_build_type={build!r} "
                    "(need 'release'; reconfigure with "
                    "CMAKE_BUILD_TYPE=Release)")
    for binary, metrics in baseline["metrics"].items():
        runs = {b["name"]: b
                for b in results.get(binary, {}).get("benchmarks", [])}
        for name, base in metrics.items():
            if name.startswith("_"):  # _comment keys are annotations
                continue
            current = runs.get(name)
            label = f"{binary}:{name}"
            if current is None:
                failures.append(f"{label}: missing from current results")
                continue
            if current.get("time_unit") != base["time_unit"]:
                failures.append(
                    f"{label}: time_unit {current.get('time_unit')} != "
                    f"baseline {base['time_unit']}")
                continue
            checked += 1
            ratio = current["cpu_time"] / base["cpu_time"]
            verdict = "REGRESSED" if ratio > threshold else "ok"
            print(f"{label}: cpu_time {current['cpu_time']:.1f} "
                  f"{base['time_unit']} vs baseline {base['cpu_time']:.1f} "
                  f"({ratio:.2f}x, limit {threshold}x) {verdict}")
            if ratio > threshold:
                failures.append(f"{label}: {ratio:.2f}x over baseline")
    for binary, pairs in baseline.get("ratios", {}).items():
        runs = {b["name"]: b
                for b in results.get(binary, {}).get("benchmarks", [])}
        for pair in pairs:
            fast = runs.get(pair["fast"])
            slow = runs.get(pair["slow"])
            label = f"{binary}:{pair['fast']} / {pair['slow']}"
            if fast is None or slow is None:
                failures.append(f"{label}: missing from current results")
                continue
            if fast.get("simd_level", 1.0) == 0.0:
                print(f"{label}: skipped (auto dispatch resolved to scalar)")
                continue
            checked += 1
            ratio = fast["cpu_time"] / slow["cpu_time"]
            limit = float(pair["max_ratio"])
            verdict = "REGRESSED" if ratio > limit else "ok"
            print(f"{label}: cpu_time ratio {ratio:.2f} "
                  f"(limit {limit}) {verdict}")
            if ratio > limit:
                failures.append(f"{label}: ratio {ratio:.2f} over {limit}")
    if failures:
        print(f"\n{len(failures)} bench-regression failure(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nall {checked} gated metrics within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
