#!/usr/bin/env python3
"""Smoke test for the server benchmark.

Runs every workload in --tiny mode (small corpus, sub-second windows)
with --trace 0 and --trace 1 and checks that each run exits 0, prints
"correct": true, and emits exactly the metrics BENCHMARK.json names,
each a finite number with the declared unit. Then runs every workload
with --corrupt-reference and checks that the wrong reference is caught
("correct": false, nonzero exit).

Usage (from the checkout root): python3 perfbench/smoke_test.py
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--tiny"] + list(extra)
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def check_metrics(label, result, declared, failures):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append("%s: result keys %s" % (label, sorted(result)))
        return
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        failures.append("%s: attempted %r" % (label, result["attempted"]))
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if sorted(got) != sorted(want):
        failures.append("%s: metric names differ: missing %s, extra %s" % (
            label, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        metric = got.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if metric.get("unit") != unit:
            failures.append("%s: %s unit %r, want %r" % (
                label, name, metric.get("unit"), unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append("%s: %s value %r" % (label, name, value))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s trace=%d" % (workload, trace)
            code, result, stderr = run(workload, trace)
            if code != 0 or result is None or result.get("correct") is not True:
                failures.append("%s: exit %d, result %r\n%s" % (
                    label, code, result, stderr[-2000:]))
                continue
            if trace == 0:
                # End-to-end metrics must never read 0.
                zero = [k for k, v in result["metrics"].items()
                        if v.get("value") == 0]
                if zero:
                    failures.append("%s: zero metrics %s" % (label, zero))
            check_metrics(label, result, declared, failures)
            print("ok   %s" % label, flush=True)

    for workload in [w["name"] for w in spec["workloads"]]:
        code, result, _ = run(workload, 0, ["--corrupt-reference"])
        if code == 0 or result is None or result.get("correct") is not False:
            failures.append("%s: wrong reference not caught: exit %d, "
                            "result %r" % (workload, code, result))
        else:
            print("ok   %s wrong reference caught" % workload, flush=True)

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
