// Thread/shard scaling of the parallel Loop-Lifted StandOff MergeJoin
// on the Section 4.5 micro workload (10k candidates spread over the
// universe, one context interval per iteration). The {1} thread rows
// are the serial-kernel baseline the speedups read against; run via
// bench/run_bench.sh so the curves land in BENCH_results.json next to
// the single-thread numbers.
//
// NOTE: wall-clock scaling tracks the host's core count — on a 1-core
// container every thread count measures ~1x (the decomposition and
// merge overheads, not parallel speedup).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "standoff/parallel_join.h"

namespace {

using namespace standoff;

struct Workload {
  so::RegionIndex index;
  std::vector<storage::Pre> candidate_ids;
  std::vector<so::IterRegion> context_rows;
  std::vector<uint32_t> ann_iters;
  uint32_t iter_count;
};

/// Same shape as bench_mergejoin_micro's MakeWorkload: candidates
/// spread over the universe; each iteration one context interval
/// covering ~1/iters of it (Q2-like).
Workload MakeWorkload(size_t candidates, uint32_t iters) {
  Rng rng(42);
  const int64_t universe = 1000000;
  std::vector<so::RegionEntry> entries;
  entries.reserve(candidates);
  for (size_t i = 0; i < candidates; ++i) {
    int64_t start = rng.UniformRange(0, universe);
    int64_t end = start + rng.UniformRange(0, 50);
    entries.push_back(
        so::RegionEntry{start, end, static_cast<storage::Pre>(i + 2)});
  }
  Workload w{so::RegionIndex::FromEntries(std::move(entries)),
             {},
             {},
             {},
             iters};
  const storage::Span<storage::Pre> ann_ids = w.index.annotated_ids();
  w.candidate_ids.assign(ann_ids.begin(), ann_ids.end());
  const int64_t width = universe / std::max<uint32_t>(iters, 1);
  for (uint32_t it = 0; it < iters; ++it) {
    int64_t start = static_cast<int64_t>(it) * width;
    w.ann_iters.push_back(it);
    w.context_rows.push_back(
        so::IterRegion{it, start, start + width,
                       static_cast<uint32_t>(w.context_rows.size())});
  }
  return w;
}

/// Args: {candidates, iters, threads, shards}.
void BM_ParallelLoopLifted(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<size_t>(state.range(0)),
                            static_cast<uint32_t>(state.range(1)));
  const uint32_t threads = static_cast<uint32_t>(state.range(2));
  const uint32_t shards = static_cast<uint32_t>(state.range(3));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
  so::ParallelJoinOptions options;
  options.pool = pool.get();
  options.iter_blocks = threads;
  options.candidate_shards = shards;

  size_t results = 0;
  for (auto _ : state) {
    std::vector<so::IterMatch> out;
    auto st = so::ParallelLoopLiftedStandoffJoinColumns(
        so::StandoffOp::kSelectNarrow, w.context_rows, w.ann_iters,
        w.index.columns(), w.candidate_ids, w.iter_count, &out, options);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    results = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["cand_rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)) * state.iterations(),
      benchmark::Counter::kIsRate);
}

/// Args: {candidates, iters, threads} — the loop-lifted kernel's
/// wide-op decomposition, whose candidate pruning bounds only the
/// right side (overlap has no lower start bound), so blocks overlap
/// in candidate range and scaling trails the narrow case.
void BM_ParallelSelectWide(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<size_t>(state.range(0)),
                            static_cast<uint32_t>(state.range(1)));
  const uint32_t threads = static_cast<uint32_t>(state.range(2));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
  so::ParallelJoinOptions options;
  options.pool = pool.get();
  options.iter_blocks = threads;
  for (auto _ : state) {
    std::vector<so::IterMatch> out;
    auto st = so::ParallelLoopLiftedStandoffJoinColumns(
        so::StandoffOp::kSelectWide, w.context_rows, w.ann_iters,
        w.index.columns(), w.candidate_ids, w.iter_count, &out, options);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
  state.counters["threads"] = static_cast<double>(threads);
}

}  // namespace

// The acceptance workload: 10k candidates, 1000 iterations. Threads
// sweep 1/2/4/8 at 1 shard (pure iteration-range split), plus the
// sharded decompositions.
BENCHMARK(BM_ParallelLoopLifted)
    ->Args({10000, 1000, 1, 1})
    ->Args({10000, 1000, 2, 1})
    ->Args({10000, 1000, 4, 1})
    ->Args({10000, 1000, 8, 1})
    ->Args({10000, 1000, 4, 3})
    ->Args({100000, 1000, 1, 1})
    ->Args({100000, 1000, 4, 1})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ParallelSelectWide)
    ->Args({10000, 1000, 1})
    ->Args({10000, 1000, 4})
    ->Unit(benchmark::kMicrosecond);

// Logs the detected and selected instruction-set level (also embedded
// in the JSON context) so the scaling curves state which merge kernels
// every cell actually ran.
int main(int argc, char** argv) {
  const char* detected = simd::LevelName(simd::Detect());
  const char* selected = simd::LevelName(simd::Resolve(simd::Level::kAuto));
  std::fprintf(stderr, "simd: detected=%s selected=%s\n", detected, selected);
  benchmark::AddCustomContext("simd_detected", detected);
  benchmark::AddCustomContext("simd_selected", selected);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
