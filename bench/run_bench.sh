#!/usr/bin/env bash
# Runs the minibench micro-benchmarks with JSON output and merges
# them into BENCH_results.json at the repo root, so the performance
# trajectory is machine-readable PR over PR.
#
# Refuses to record numbers from a non-Release build: unoptimized
# timings are misleading and have silently polluted results files in
# other projects. Set STANDOFF_BENCH_ALLOW_NON_RELEASE=1 to override
# (the results then still carry the real build type in the JSON
# context emitted by the harness).
#
# A bench binary that exits nonzero is reported and makes the script
# exit nonzero AFTER the remaining benches have run — one broken bench
# must neither mask the others nor be masked by them.
#
# Usage: bench/run_bench.sh [--check] [build-dir] [extra harness flags...]
#   --check   after merging, diff the key bench_mergejoin_micro and
#             bench_skew_sparsity metrics against bench/bench_baseline.json
#             (generous threshold; catches order-of-magnitude regressions)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CHECK=0
BUILD_DIR=""
EXTRA=()
for arg in "$@"; do
  case "$arg" in
    --check) CHECK=1 ;;
    -*) EXTRA+=("$arg") ;;
    *) if [[ -z "$BUILD_DIR" ]]; then BUILD_DIR="$arg"; else EXTRA+=("$arg"); fi ;;
  esac
done
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build}"
OUT="$REPO_ROOT/BENCH_results.json"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

CACHE="$BUILD_DIR/CMakeCache.txt"
BUILD_TYPE=""
if [[ -f "$CACHE" ]]; then
  BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE")"
fi
echo "detected CMAKE_BUILD_TYPE='${BUILD_TYPE:-unknown}' in $BUILD_DIR" >&2
if [[ "$BUILD_TYPE" != "Release" &&
      "${STANDOFF_BENCH_ALLOW_NON_RELEASE:-0}" != "1" ]]; then
  echo "refusing to benchmark a '${BUILD_TYPE:-unknown}' build in" \
       "$BUILD_DIR (need CMAKE_BUILD_TYPE=Release; set" \
       "STANDOFF_BENCH_ALLOW_NON_RELEASE=1 to override)" >&2
  exit 1
fi

BENCHES=(bench_mergejoin_micro bench_ablation_active_list
         bench_ablation_pushdown bench_loading bench_skew_sparsity
         bench_chain_planner bench_server_loadgen)

# Runs one bench under a tiny wrapper that reports the child's peak RSS
# (resource.getrusage of the finished child) next to its timings —
# memory regressions are as real as time regressions for a store that
# wants to serve from mmap.
run_one() {
  local bin="$1" out="$2"
  shift 2
  python3 - "$bin" "$out" "$@" <<'PY'
import resource, subprocess, sys
binary, out = sys.argv[1], sys.argv[2]
with open(out, "w") as f:
    rc = subprocess.call([binary, "--benchmark_format=json", *sys.argv[3:]],
                         stdout=f)
peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"peak RSS: {peak_kib / 1024:.1f} MiB", file=sys.stderr)
sys.exit(rc)
PY
}

ran=0
FAILED=()
for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "skipping $bench (not built in $BUILD_DIR)" >&2
    continue
  fi
  echo "=== $bench ===" >&2
  if ! run_one "$bin" "$TMP_DIR/$bench.json" ${EXTRA[@]+"${EXTRA[@]}"}
  then
    echo "FAILED: $bench exited nonzero" >&2
    rm -f "$TMP_DIR/$bench.json"
    FAILED+=("$bench")
    continue
  fi
  ran=$((ran + 1))
done

if [[ "$ran" -eq 0 ]]; then
  echo "no benchmarks succeeded in $BUILD_DIR; leaving $OUT untouched" >&2
  exit 1
fi

# Merge: one top-level object keyed by benchmark binary. Refuses to
# record results whose own harness context says the benchmark LIBRARY
# was not a release build (a bench binary built against a debug harness
# skews and mislabels every number). STANDOFF_BENCH_ALLOW_NON_RELEASE=1
# overrides, as for the project build-type check above.
python3 - "$OUT" "$TMP_DIR" \
        "${STANDOFF_BENCH_ALLOW_NON_RELEASE:-0}" <<'PY'
import json, pathlib, sys
out_path, tmp_dir, allow_debug = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
merged = {}
debug_contexts = []
for path in sorted(pathlib.Path(tmp_dir).glob("*.json")):
    merged[path.stem] = json.loads(path.read_text())
    build = merged[path.stem].get("context", {}).get("library_build_type")
    if build != "release":
        debug_contexts.append(f"{path.stem} (library_build_type={build})")
if debug_contexts and not allow_debug:
    print("refusing to record non-release benchmark-library contexts:\n  "
          + "\n  ".join(debug_contexts)
          + "\n(reconfigure with CMAKE_BUILD_TYPE=Release, or set "
          "STANDOFF_BENCH_ALLOW_NON_RELEASE=1)", file=sys.stderr)
    sys.exit(1)
pathlib.Path(out_path).write_text(json.dumps(merged, indent=2) + "\n")
print(f"wrote {out_path}")
PY

if [[ "${#FAILED[@]}" -gt 0 ]]; then
  echo "bench failures: ${FAILED[*]}" >&2
  exit 1
fi

if [[ "$CHECK" -eq 1 ]]; then
  python3 "$REPO_ROOT/bench/check_regression.py" "$OUT" \
          "$REPO_ROOT/bench/bench_baseline.json"
fi
