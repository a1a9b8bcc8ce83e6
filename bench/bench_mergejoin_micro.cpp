// Micro-benchmarks of the join algorithms themselves, isolated from the
// engine: Loop-Lifted StandOff MergeJoin vs. per-iteration Basic joins vs.
// the quadratic reference, across candidate counts and iteration counts.
//
// This quantifies the core Section 4.5 result at the algorithm level: the
// loop-lifted variant's cost is one index scan regardless of the number
// of loop iterations, while per-iteration evaluation multiplies.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/rng.h"
#include "standoff/merge_join.h"

namespace {

using namespace standoff;

struct Workload {
  so::RegionIndex index;
  std::vector<storage::Pre> candidate_ids;
  std::vector<so::AreaAnnotation> candidate_annotations;
  std::vector<so::IterRegion> context_rows;     // loop-lifted form
  std::vector<std::vector<so::AreaAnnotation>> context_per_iter;
  uint32_t iter_count;
};

/// Candidates spread over the universe; each iteration gets one context
/// interval covering ~1/iters of the universe (Q2-like shape).
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
             {},
             iters};
  const storage::Span<storage::Pre> ann_ids = w.index.annotated_ids();
  w.candidate_ids.assign(ann_ids.begin(), ann_ids.end());
  const so::RegionColumns cols = w.index.columns();
  for (size_t i = 0; i < cols.size; ++i) {
    w.candidate_annotations.push_back(
        so::AreaAnnotation{cols.id[i], {{cols.start[i], cols.end[i]}}});
  }
  w.context_per_iter.resize(iters);
  const int64_t width = universe / std::max<uint32_t>(iters, 1);
  for (uint32_t it = 0; it < iters; ++it) {
    int64_t start = static_cast<int64_t>(it) * width;
    int64_t end = start + width;
    w.context_rows.push_back(so::IterRegion{it, start, end});
    w.context_per_iter[it].push_back(so::AreaAnnotation{0, {{start, end}}});
  }
  return w;
}

void BM_LoopLiftedJoin(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<size_t>(state.range(0)),
                            static_cast<uint32_t>(state.range(1)));
  size_t results = 0;
  for (auto _ : state) {
    std::vector<so::IterMatch> out;
    auto st = so::LoopLiftedStandoffJoinColumns(
        so::StandoffOp::kSelectNarrow, w.context_rows, w.index.columns(),
        w.candidate_ids, w.iter_count, &out);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    results = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["cand_rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)) * state.iterations(),
      benchmark::Counter::kIsRate);
}

/// Sparse shape: contexts cover only ~1% of the universe, so nearly the
/// whole index is provably-unmatchable runs — what the galloping merge
/// cursor skips. {candidates, iterations, gallop}.
void BM_LoopLiftedJoinSparse(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<size_t>(state.range(0)),
                            static_cast<uint32_t>(state.range(1)));
  // Shrink every context region to 1% of its tile, keeping starts.
  for (so::IterRegion& c : w.context_rows) {
    c.end = c.start + std::max<int64_t>((c.end - c.start) / 100, 1);
  }
  so::JoinArena arena;
  size_t results = 0;
  for (auto _ : state) {
    so::JoinOptions options;
    options.gallop = state.range(2) == 1;
    options.arena = &arena;
    std::vector<so::IterMatch> out;
    auto st = so::LoopLiftedStandoffJoinColumns(
        so::StandoffOp::kSelectNarrow, w.context_rows, w.index.columns(),
        w.candidate_ids, w.iter_count, &out, options);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    results = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["cand_rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)) * state.iterations(),
      benchmark::Counter::kIsRate);
}

/// {candidates, iterations, gallop}: gallop=0 is the paper-faithful
/// Basic alternative whose cost multiplies with the iteration count
/// (every call re-scans the index); gallop=1 lets each call skip to its
/// context's span, which collapses the multiplication on partitioned
/// workloads like this one.
void BM_BasicJoinPerIteration(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<size_t>(state.range(0)),
                            static_cast<uint32_t>(state.range(1)));
  so::JoinOptions options;
  options.gallop = state.range(2) == 1;
  for (auto _ : state) {
    size_t total = 0;
    for (uint32_t it = 0; it < w.iter_count; ++it) {
      std::vector<storage::Pre> out;
      auto st = so::BasicStandoffJoinColumns(so::StandoffOp::kSelectNarrow,
                                             w.context_per_iter[it],
                                             w.index.columns(),
                                             w.candidate_ids, &out, options);
      if (!st.ok()) state.SkipWithError(st.ToString().c_str());
      total += out.size();
    }
    benchmark::DoNotOptimize(total);
  }
}

void BM_NaiveJoinPerIteration(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<size_t>(state.range(0)),
                            static_cast<uint32_t>(state.range(1)));
  for (auto _ : state) {
    size_t total = 0;
    for (uint32_t it = 0; it < w.iter_count; ++it) {
      std::vector<storage::Pre> out;
      so::NaiveStandoffJoin(so::StandoffOp::kSelectNarrow,
                            w.context_per_iter[it], w.candidate_annotations,
                            &out);
      total += out.size();
    }
    benchmark::DoNotOptimize(total);
  }
}

void BM_SelectWideLoopLifted(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<size_t>(state.range(0)),
                            static_cast<uint32_t>(state.range(1)));
  for (auto _ : state) {
    std::vector<so::IterMatch> out;
    auto st = so::LoopLiftedStandoffJoinColumns(
        so::StandoffOp::kSelectWide, w.context_rows, w.index.columns(),
        w.candidate_ids, w.iter_count, &out);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}

void BM_RejectNarrowLoopLifted(benchmark::State& state) {
  Workload w = MakeWorkload(static_cast<size_t>(state.range(0)),
                            static_cast<uint32_t>(state.range(1)));
  for (auto _ : state) {
    std::vector<so::IterMatch> out;
    auto st = so::LoopLiftedStandoffJoinColumns(
        so::StandoffOp::kRejectNarrow, w.context_rows, w.index.columns(),
        w.candidate_ids, w.iter_count, &out);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
}

}  // namespace

// {candidates, iterations}: iteration count is the loop-lifting lever.
BENCHMARK(BM_LoopLiftedJoin)
    ->Args({10000, 1})
    ->Args({10000, 100})
    ->Args({10000, 1000})
    ->Args({100000, 1})
    ->Args({100000, 1000})
    ->Unit(benchmark::kMicrosecond);
// {candidates, iterations, gallop}: ~99% of the index has no live
// context; gallop=0 is the pre-skip linear merge for comparison.
BENCHMARK(BM_LoopLiftedJoinSparse)
    ->Args({100000, 100, 1})
    ->Args({100000, 100, 0})
    ->Args({100000, 1000, 1})
    ->Args({100000, 1000, 0})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BasicJoinPerIteration)
    ->Args({10000, 1, 0})
    ->Args({10000, 100, 0})
    ->Args({10000, 1000, 0})
    ->Args({100000, 1, 0})
    ->Args({10000, 1000, 1})
    ->Args({100000, 1, 1})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_NaiveJoinPerIteration)
    ->Args({10000, 1})
    ->Args({10000, 100})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SelectWideLoopLifted)
    ->Args({10000, 100})
    ->Args({100000, 1000})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RejectNarrowLoopLifted)
    ->Args({10000, 100})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
