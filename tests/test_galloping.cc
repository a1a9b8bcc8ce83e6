// Boundary tests for the skip-based (galloping) merge path: skipping
// must land exactly on a context's start, never skip past a matchable
// candidate, handle skip-past-end cleanly, and behave on single-entry
// runs. Every case is cross-checked against the non-galloping kernel
// and the brute-force oracle, and the skip counters are pinned where
// the skip set is unambiguous.
#include "common/rng.h"
#include "standoff/merge_join.h"
#include "tests/harness.h"
#include "tests/oracle.h"

using namespace standoff;
using so::IterMatch;
using so::IterRegion;
using so::RegionEntry;
using storage::Pre;

namespace {

/// Every dispatch level this CPU can execute, scalar first.
std::vector<simd::Level> DispatchLevels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  if (simd::Supported(simd::Level::kSSE42)) {
    levels.push_back(simd::Level::kSSE42);
  }
  if (simd::Supported(simd::Level::kAVX2)) {
    levels.push_back(simd::Level::kAVX2);
  }
  return levels;
}

void CheckStatsEqual(const so::JoinStats& a, const so::JoinStats& b) {
  CHECK_EQ(a.active_peak, b.active_peak);
  CHECK_EQ(a.contexts_skipped, b.contexts_skipped);
  CHECK_EQ(a.contexts_dead, b.contexts_dead);
  CHECK_EQ(a.candidates_scanned, b.candidates_scanned);
  CHECK_EQ(a.candidates_skipped, b.candidates_skipped);
  CHECK_EQ(a.matches_emitted, b.matches_emitted);
}

/// Joins with galloping on and off at EVERY supported dispatch level,
/// checks all of them equal the oracle and that the counters are
/// level-invariant (the blockwise fast paths must replay exactly what
/// the per-row loops would have counted), and returns the galloping
/// run's stats.
so::JoinStats CheckBothPaths(so::StandoffOp op,
                             const std::vector<IterRegion>& context,
                             const so::RegionIndex& index,
                             uint32_t iter_count) {
  const std::vector<IterMatch> oracle = test::OracleStandoffJoin(
      op, context, test::Rows(index), index.annotated_ids(), iter_count);
  const std::vector<simd::Level> levels = DispatchLevels();
  so::JoinStats gallop_stats;
  bool have_gallop_stats = false;
  for (simd::Level level : levels) {
    so::JoinStats stats;
    std::vector<IterMatch> with_gallop, without_gallop;
    so::JoinOptions on;
    on.gallop = true;
    on.simd = level;
    on.stats = &stats;
    CHECK_OK(so::LoopLiftedStandoffJoinColumns(
        op, context, index.columns(), index.annotated_ids(), iter_count,
        &with_gallop, on));
    so::JoinOptions off;
    off.gallop = false;
    off.simd = level;
    CHECK_OK(so::LoopLiftedStandoffJoinColumns(
        op, context, index.columns(), index.annotated_ids(), iter_count,
        &without_gallop, off));
    CHECK(with_gallop == oracle);
    CHECK(without_gallop == oracle);
    if (have_gallop_stats) {
      CheckStatsEqual(stats, gallop_stats);
    } else {
      gallop_stats = stats;
      have_gallop_stats = true;
    }
  }
  return gallop_stats;
}

}  // namespace

static void TestSkipToExactStart() {
  // A long run of early candidates, then one candidate starting EXACTLY
  // at the context's start: the gallop must stop on it, not beyond.
  std::vector<RegionEntry> entries;
  for (Pre i = 0; i < 50; ++i) {
    entries.push_back(RegionEntry{static_cast<int64_t>(i) * 10,
                                  static_cast<int64_t>(i) * 10 + 5, i + 2});
  }
  entries.push_back(RegionEntry{1000, 1005, 100});  // == context start
  entries.push_back(RegionEntry{1001, 1004, 101});
  so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));
  const std::vector<IterRegion> context{{0, 1000, 2000}};
  const so::JoinStats stats = CheckBothPaths(
      so::StandoffOp::kSelectNarrow, context, index, 1);
  CHECK_EQ(stats.candidates_skipped, 50u);  // exactly the early run
  CHECK_EQ(stats.candidates_scanned, 2u);
}

static void TestSkipPastEnd() {
  // All candidates lie before the only context: the gallop falls off the
  // end of the columns without probing anything.
  std::vector<RegionEntry> entries;
  for (Pre i = 0; i < 40; ++i) {
    entries.push_back(RegionEntry{static_cast<int64_t>(i),
                                  static_cast<int64_t>(i) + 3, i + 2});
  }
  so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));
  const std::vector<IterRegion> context{{0, 5000, 6000}};
  const so::JoinStats stats = CheckBothPaths(
      so::StandoffOp::kSelectNarrow, context, index, 1);
  CHECK_EQ(stats.candidates_skipped, 40u);
  CHECK_EQ(stats.candidates_scanned, 0u);
  CHECK_EQ(stats.matches_emitted, 0u);
}

static void TestNoContextAtAllSkipsEverything() {
  // Context list exhausted immediately (reject still yields the full
  // universe per live iteration — here there is none).
  std::vector<RegionEntry> entries{{10, 20, 2}, {30, 40, 3}};
  so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));
  for (so::StandoffOp op : {so::StandoffOp::kSelectNarrow,
                            so::StandoffOp::kSelectWide,
                            so::StandoffOp::kRejectNarrow,
                            so::StandoffOp::kRejectWide}) {
    CheckBothPaths(op, {}, index, 1);
  }
}

static void TestSingleCandidateRuns() {
  // Alternating lone candidates and lone contexts: every skip run has
  // length 0 or 1, the degenerate gallop sizes.
  std::vector<RegionEntry> entries{
      {0, 1, 2}, {100, 101, 3}, {200, 201, 4}, {300, 301, 5}};
  so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));
  std::vector<IterRegion> context{{0, 95, 105}, {1, 295, 305}};
  const so::JoinStats stats = CheckBothPaths(
      so::StandoffOp::kSelectNarrow, context, index, 2);
  // Candidates at 0 and 200 are skipped (no live context), 100 and 300
  // are probed and match.
  CHECK_EQ(stats.candidates_skipped, 2u);
  CHECK_EQ(stats.candidates_scanned, 2u);
}

static void TestZeroWidthAtSkipBoundary() {
  // Zero-width candidate exactly at a zero-width context: both gallop
  // boundary conditions (start == start, end == start) at once.
  std::vector<RegionEntry> entries{{5, 5, 2}, {50, 50, 3}, {70, 70, 4}};
  so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));
  std::vector<IterRegion> context{{0, 50, 50}};
  const so::JoinStats stats = CheckBothPaths(
      so::StandoffOp::kSelectNarrow, context, index, 1);
  CHECK_EQ(stats.candidates_scanned, 1u);  // only the candidate at 50
  CHECK_EQ(stats.candidates_skipped, 2u);
}

static void TestDeadContextSkip() {
  // Contexts that end before the next candidate even starts are never
  // activated; a live one still is.
  std::vector<RegionEntry> entries{{1000, 1010, 2}};
  so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));
  std::vector<IterRegion> context{
      {0, 0, 10}, {1, 20, 30}, {2, 990, 2000}};
  const so::JoinStats stats = CheckBothPaths(
      so::StandoffOp::kSelectNarrow, context, index, 3);
  CHECK_EQ(stats.contexts_dead, 2u);
  CHECK_EQ(stats.active_peak, 1u);
}

static void TestWideGallopBoundaries() {
  // Wide (overlap) pass: a candidate ending exactly one unit before the
  // next context is dead; one touching it is not (inclusive bounds).
  std::vector<RegionEntry> entries{
      {0, 99, 2},    // dead: ends before context start 100
      {10, 100, 3},  // alive: touches the context start
      {500, 600, 4}  // overlaps the second context
  };
  so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));
  std::vector<IterRegion> context{{0, 100, 110}, {1, 550, 560}};
  const so::JoinStats stats = CheckBothPaths(
      so::StandoffOp::kSelectWide, context, index, 2);
  CHECK_EQ(stats.candidates_skipped, 1u);
  CheckBothPaths(so::StandoffOp::kRejectWide, context, index, 2);
}

static void TestDispatchTailsAndSlices() {
  // Lane-width edge cases for the vector kernels: slice lengths sweep
  // 0..33, covering the empty input, every non-multiple-of-lane tail
  // for the 2-, 4-, and 8-lane paths, and a >kSearchTail run (binary
  // head + count-less tail); slice offsets 1..5 put the sub-view base
  // pointers at every misalignment of the underlying columns. A
  // context spanning the whole slice keeps exactly one region active,
  // so the blockwise compaction runs over each shape; a second
  // iteration's region cuts blocks at an activation boundary. Every
  // supported level must reproduce the brute-force oracle byte for
  // byte on all four operators.
  Rng rng(7);
  std::vector<RegionEntry> entries;
  int64_t cursor = 0;
  for (Pre i = 0; i < 64; ++i) {
    cursor += rng.UniformRange(0, 9);
    entries.push_back(RegionEntry{cursor, cursor + rng.UniformRange(0, 12),
                                  static_cast<Pre>(i + 2)});
  }
  so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));
  const so::RegionColumns all = index.columns();
  const std::vector<simd::Level> levels = DispatchLevels();
  const size_t lo_values[] = {0, 1, 2, 3, 5};
  const size_t len_values[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 17, 33};
  for (size_t lo : lo_values) {
    for (size_t len : len_values) {
      if (lo + len > all.size) continue;
      const so::RegionColumns slice = all.Slice(lo, lo + len);
      const int64_t span_lo = len > 0 ? slice.start[0] : 0;
      const int64_t span_hi = len > 0 ? slice.start[len - 1] + 16 : 8;
      std::vector<IterRegion> context{
          IterRegion{0, span_lo - 1, span_hi},
          IterRegion{1, (span_lo + span_hi) / 2, span_hi + 4}};
      const std::vector<RegionEntry> slice_entries = test::Rows(slice);
      for (so::StandoffOp op : {so::StandoffOp::kSelectNarrow,
                                so::StandoffOp::kSelectWide,
                                so::StandoffOp::kRejectNarrow,
                                so::StandoffOp::kRejectWide}) {
        const std::vector<IterMatch> oracle = test::OracleStandoffJoin(
            op, context, slice_entries, index.annotated_ids(), 2);
        for (simd::Level level : levels) {
          for (bool gallop : {true, false}) {
            so::JoinOptions options;
            options.simd = level;
            options.gallop = gallop;
            std::vector<IterMatch> out;
            CHECK_OK(so::LoopLiftedStandoffJoinColumns(
                op, context, slice, index.annotated_ids(), 2,
                &out, options));
            CHECK(out == oracle);
          }
        }
      }
    }
  }
}

static void TestGallopAgainstOracleRandomized() {
  // Sparse randomized sweep biased to trigger long skips, both kinds of
  // active list.
  Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    const int64_t universe = 100000;
    std::vector<RegionEntry> entries;
    const size_t cands = 50 + static_cast<size_t>(rng.UniformRange(0, 200));
    for (size_t i = 0; i < cands; ++i) {
      const int64_t start = rng.UniformRange(0, universe);
      entries.push_back(RegionEntry{start, start + rng.UniformRange(0, 40),
                                    static_cast<Pre>(i + 2)});
    }
    so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));
    std::vector<IterRegion> context;
    const uint32_t iters = 1 + static_cast<uint32_t>(rng.UniformRange(0, 4));
    for (uint32_t it = 0; it < iters; ++it) {
      // Tiny clustered contexts: ~0.2% coverage each.
      const int64_t start = rng.UniformRange(0, universe);
      context.push_back(
          IterRegion{it, start, start + rng.UniformRange(0, 200)});
    }
    for (so::StandoffOp op : {so::StandoffOp::kSelectNarrow,
                              so::StandoffOp::kSelectWide,
                              so::StandoffOp::kRejectNarrow,
                              so::StandoffOp::kRejectWide}) {
      const std::vector<IterMatch> oracle = test::OracleStandoffJoin(
          op, context, test::Rows(index), index.annotated_ids(), iters);
      for (so::ActiveListKind kind : {so::ActiveListKind::kSortedList,
                                      so::ActiveListKind::kEndHeap}) {
        for (simd::Level level : DispatchLevels()) {
          so::JoinOptions options;
          options.active_list = kind;
          options.simd = level;
          std::vector<IterMatch> out;
          CHECK_OK(so::LoopLiftedStandoffJoinColumns(
              op, context, index.columns(), index.annotated_ids(),
              iters, &out, options));
          CHECK(out == oracle);
        }
      }
    }
  }
}

int main() {
  RUN_TEST(TestSkipToExactStart);
  RUN_TEST(TestSkipPastEnd);
  RUN_TEST(TestNoContextAtAllSkipsEverything);
  RUN_TEST(TestSingleCandidateRuns);
  RUN_TEST(TestZeroWidthAtSkipBoundary);
  RUN_TEST(TestDeadContextSkip);
  RUN_TEST(TestWideGallopBoundaries);
  RUN_TEST(TestDispatchTailsAndSlices);
  RUN_TEST(TestGallopAgainstOracleRandomized);
  TEST_MAIN();
}
