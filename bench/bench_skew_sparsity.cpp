// Galloping vs. linear merging across region-distribution shapes: the
// skip-based columnar kernel must turn sparse and skewed workloads
// output-bounded (time tracking matches, not index size) while staying
// within noise of the non-skipping merge on dense tilings.
//
// Grid: {uniform, clustered, zipf} candidate distributions ×
// {sparse 1%, medium 20%, dense 100%} context coverage ×
// {gallop, linear} × {auto, forced-scalar} SIMD dispatch. Counters
// record how much of the index each configuration actually probed and
// which dispatch level actually ran (simd_level); the dense rows exist
// in auto/scalar pairs so check_regression.py can gate the vector
// kernels' speedup as a within-run ratio, immune to host noise.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/simd.h"
#include "skew_workloads.h"
#include "standoff/merge_join.h"

namespace {

using namespace standoff;

void RunSkewJoin(benchmark::State& state, so::StandoffOp op) {
  const auto shape = static_cast<benchdata::CandidateShape>(state.range(0));
  const int64_t permille = state.range(1);
  const bool gallop = state.range(2) == 1;
  const simd::Level requested =
      state.range(3) == 1 ? simd::Level::kScalar : simd::Level::kAuto;
  const size_t candidates = 200000;
  const uint32_t iters = 64;
  benchdata::SkewWorkload w =
      benchdata::MakeSkewWorkload(shape, candidates, iters, permille);

  so::JoinArena arena;
  so::JoinStats stats;
  size_t rows = 0;
  std::vector<so::IterMatch> out;
  for (auto _ : state) {
    so::JoinOptions options;
    options.gallop = gallop;
    options.simd = requested;
    options.arena = &arena;
    options.stats = &stats;
    auto st = so::LoopLiftedStandoffJoinColumns(
        op, w.context, w.index.columns(), w.candidate_ids,
        w.iter_count, &out, options);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    rows = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["cand_probed"] = static_cast<double>(stats.candidates_scanned);
  state.counters["cand_skipped"] =
      static_cast<double>(stats.candidates_skipped);
  state.counters["cand_rows_per_s"] = benchmark::Counter(
      static_cast<double>(candidates) * state.iterations(),
      benchmark::Counter::kIsRate);
  state.counters["simd_level"] =
      static_cast<double>(static_cast<int>(simd::Resolve(requested)));
}

void BM_SkewSelectNarrow(benchmark::State& state) {
  RunSkewJoin(state, so::StandoffOp::kSelectNarrow);
}

void BM_SkewSelectWide(benchmark::State& state) {
  RunSkewJoin(state, so::StandoffOp::kSelectWide);
}

/// The grid, less the dense uniform and clustered rows: those run in
/// DispatchPairs beside their forced-scalar companions.
void SkewGrid(benchmark::internal::Benchmark* b) {
  for (int shape = 0; shape <= 2; ++shape) {
    for (int64_t permille : {10, 200, 1000}) {
      if (permille == 1000 && shape <= 1) continue;
      for (int gallop : {1, 0}) {
        b->Args({shape, permille, gallop, 0});
      }
    }
  }
  b->Unit(benchmark::kMicrosecond);
}

/// Auto and forced-scalar dispatch over the dense tilings: the
/// single-active block shape where the vector kernels matter.
/// check_regression.py gates each pair's auto/scalar cpu_time ratio,
/// so the pairs are timed in alternating slices of one window, where
/// host-speed drift between two windows cannot move the ratio.
void DispatchPairs(benchmark::internal::Benchmark* b) {
  for (int shape : {0, 1}) {
    for (int gallop : {1, 0}) {
      b->Args({shape, 1000, gallop, 0});
      b->Args({shape, 1000, gallop, 1});
    }
  }
  b->Interleave()->Unit(benchmark::kMicrosecond);
}

}  // namespace

// {shape: 0=uniform 1=clustered 2=zipf, coverage permille, gallop,
//  simd: 0=auto 1=forced-scalar}
BENCHMARK(BM_SkewSelectNarrow)->Apply(SkewGrid);
BENCHMARK(BM_SkewSelectNarrow)->Apply(DispatchPairs);
BENCHMARK(BM_SkewSelectWide)
    ->Args({0, 10, 1, 0})
    ->Args({0, 10, 0, 0})
    ->Args({1, 10, 1, 0})
    ->Args({1, 10, 0, 0})
    ->Args({0, 1000, 1, 0})
    ->Args({0, 1000, 0, 0})
    ->Args({0, 1000, 1, 1})
    ->Unit(benchmark::kMicrosecond);

// Logs the detected and selected instruction-set level (also embedded
// in the JSON context) so every recorded run states which kernels it
// actually measured.
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
