// Ablation benches for the active-items data structure and the same-iter
// containment pruning (DESIGN.md Section 5):
//
//   1. kSortedList vs kEndHeap (the paper's Section 5 future-work remark:
//      "it could be beneficial to substitute the stack ... by a heap, in
//      data-distributions that cause it to grow long").
//   2. prune_contained_contexts on/off under heavily nested contexts
//      (Listing 1 lines 11-18).
//
// Two synthetic distributions: "short" regions (active list stays tiny)
// and "staircase" long overlapping regions (active list grows to O(n)).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "standoff/merge_join.h"

namespace {

using namespace standoff;

so::RegionIndex MakeCandidates(size_t n, int64_t universe, Rng* rng) {
  std::vector<so::RegionEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    int64_t start = rng->UniformRange(0, universe);
    entries.push_back(so::RegionEntry{start, start + rng->UniformRange(0, 20),
                                      static_cast<storage::Pre>(i + 2)});
  }
  return so::RegionIndex::FromEntries(std::move(entries));
}

/// Long, heavily overlapping context regions: each spans ~20% of the
/// universe, so thousands are simultaneously active. Distinct iterations
/// defeat the same-iter pruning, which is the paper's Section 5 concern:
/// the active "list" grows long and insertions hit the middle.
std::vector<so::IterRegion> LongOverlappingContexts(size_t n,
                                                    int64_t universe,
                                                    Rng* rng) {
  std::vector<so::IterRegion> rows;
  for (size_t i = 0; i < n; ++i) {
    int64_t start = rng->UniformRange(0, universe * 4 / 5);
    int64_t end = start + universe / 5 + rng->UniformRange(0, 50);
    rows.push_back(so::IterRegion{static_cast<uint32_t>(i), start, end});
  }
  return rows;
}

/// Short scattered contexts: the active list rarely exceeds a handful.
std::vector<so::IterRegion> ShortContexts(size_t n, int64_t universe,
                                          Rng* rng) {
  std::vector<so::IterRegion> rows;
  for (size_t i = 0; i < n; ++i) {
    int64_t start = rng->UniformRange(0, universe);
    rows.push_back(so::IterRegion{static_cast<uint32_t>(i % 16), start,
                                  start + rng->UniformRange(0, 30)});
  }
  return rows;
}

/// Deeply nested same-iteration contexts: pruning should collapse them.
std::vector<so::IterRegion> NestedContexts(size_t n, int64_t universe) {
  std::vector<so::IterRegion> rows;
  for (size_t i = 0; i < n; ++i) {
    int64_t start = static_cast<int64_t>(i);
    int64_t end = universe - static_cast<int64_t>(i);
    if (start >= end) break;
    rows.push_back(so::IterRegion{0, start, end});
  }
  return rows;
}

void RunJoin(benchmark::State& state,
             const std::vector<so::IterRegion>& context,
             const so::RegionIndex& index, so::ActiveListKind kind,
             bool prune, uint32_t iters) {
  so::JoinStats stats;
  for (auto _ : state) {
    so::JoinOptions options;
    options.active_list = kind;
    options.prune_contained_contexts = prune;
    options.stats = &stats;
    std::vector<so::IterMatch> out;
    auto st = so::LoopLiftedStandoffJoinColumns(
        so::StandoffOp::kSelectNarrow, context, index.columns(),
        index.annotated_ids(), iters, &out, options);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(out);
  }
  state.counters["active_peak"] = static_cast<double>(stats.active_peak);
  state.counters["ctx_skipped"] = static_cast<double>(stats.contexts_skipped);
}

void BM_ActiveList(benchmark::State& state) {
  Rng rng(7);
  const int64_t universe = 500000;
  // Few, narrow-matching candidates: the join cost is dominated by
  // active-list maintenance, not emission.
  so::RegionIndex index = MakeCandidates(2000, universe, &rng);
  const bool long_contexts = state.range(0) == 1;
  const auto kind = state.range(1) == 1 ? so::ActiveListKind::kEndHeap
                                        : so::ActiveListKind::kSortedList;
  std::vector<so::IterRegion> context =
      long_contexts ? LongOverlappingContexts(20000, universe, &rng)
                    : ShortContexts(20000, universe, &rng);
  RunJoin(state, context, index, kind, /*prune=*/true,
          /*iters=*/20000);
}

/// Insert-dominated distribution: candidates that never satisfy the
/// containment test (their end exceeds every context end), so the join
/// cost is purely active-list maintenance. The sorted list pays O(n)
/// middle insertions; the heap pays O(log n) — but scans all items per
/// candidate during emission, which here breaks immediately for the list.
void BM_ActiveListInsertHeavy(benchmark::State& state) {
  Rng rng(13);
  const int64_t universe = 500000;
  std::vector<so::RegionEntry> entries;
  for (size_t i = 0; i < 512; ++i) {
    int64_t start = rng.UniformRange(0, universe);
    entries.push_back(so::RegionEntry{
        start, universe + static_cast<int64_t>(i) + 1,
        static_cast<storage::Pre>(i + 2)});
  }
  so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));
  const auto kind = state.range(0) == 1 ? so::ActiveListKind::kEndHeap
                                        : so::ActiveListKind::kSortedList;
  std::vector<so::IterRegion> context =
      LongOverlappingContexts(30000, universe, &rng);
  RunJoin(state, context, index, kind, /*prune=*/true, /*iters=*/30000);
}

void BM_Pruning(benchmark::State& state) {
  Rng rng(11);
  const int64_t universe = 500000;
  so::RegionIndex index = MakeCandidates(20000, universe, &rng);
  std::vector<so::IterRegion> context = NestedContexts(1000, universe);
  RunJoin(state, context, index, so::ActiveListKind::kSortedList,
          /*prune=*/state.range(0) == 1, /*iters=*/16);
}

}  // namespace

// {distribution: 0=short 1=long-overlapping, structure: 0=list 1=heap}
BENCHMARK(BM_ActiveList)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);
// {structure: 0=list 1=heap} under insert-dominated load.
BENCHMARK(BM_ActiveListInsertHeavy)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
// {pruning: 0=off 1=on} under 1000 nested same-iteration contexts.
BENCHMARK(BM_Pruning)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
