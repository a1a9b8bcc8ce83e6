// Randomized differential test: every kernel (naive, basic and
// loop-lifted), every StandOff axis, and every kernel configuration must
// reproduce the brute-force oracle's (iter, pre) output byte for byte on
// seeded random corpora.
//
// The corpora deliberately cover the adversarial shapes: empty
// candidate sets, single entries, zero-width regions, duplicate
// boundaries, heavily nested intervals, and iterations without
// context.
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

/// Every dispatch level this CPU can execute, scalar first. Forced
/// levels above the CPU's capability would silently clamp down and
/// re-test a lower tier, so they are excluded up front.
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

struct Workload {
  so::RegionIndex index;
  std::vector<so::AreaAnnotation> candidate_annotations;
  std::vector<IterRegion> context;
  std::map<uint32_t, std::vector<so::AreaAnnotation>> context_per_iter;
  uint32_t iter_count = 0;
};

Workload MakeWorkload(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  const int64_t universe = 600;
  // Sweep the degenerate corpus shapes alongside the generic ones.
  size_t candidates = 20 + static_cast<size_t>(rng.UniformRange(0, 100));
  if (seed % 5 == 0) candidates = 0;
  if (seed % 7 == 0) candidates = 1;
  const bool zero_width_heavy = seed % 3 == 0;
  const bool nested_heavy = seed % 4 == 0;

  std::vector<RegionEntry> entries;
  for (size_t i = 0; i < candidates; ++i) {
    int64_t start = rng.UniformRange(0, universe);
    int64_t width = zero_width_heavy && rng.UniformRange(0, 1) == 0
                        ? 0
                        : rng.UniformRange(0, 60);
    if (nested_heavy && i > 0 && rng.UniformRange(0, 1) == 0) {
      // Nest inside the previous entry when possible.
      const RegionEntry& prev = entries.back();
      start = rng.UniformRange(prev.start, prev.end);
      width = rng.UniformRange(0, std::max<int64_t>(prev.end - start, 0));
    }
    entries.push_back(
        RegionEntry{start, start + width, static_cast<Pre>(i + 2)});
  }
  w.index = so::RegionIndex::FromEntries(std::move(entries));
  for (const RegionEntry& e : test::Rows(w.index)) {
    w.candidate_annotations.push_back(
        so::AreaAnnotation{e.id, {{e.start, e.end}}});
  }

  w.iter_count = static_cast<uint32_t>(1 + rng.UniformRange(0, 9));
  const size_t rows = static_cast<size_t>(rng.UniformRange(0, 29));
  for (size_t i = 0; i < rows; ++i) {
    const uint32_t iter =
        static_cast<uint32_t>(rng.UniformRange(0, w.iter_count - 1));
    const int64_t start = rng.UniformRange(0, universe);
    const int64_t end = start + rng.UniformRange(0, 150);
    w.context.push_back(IterRegion{iter, start, end});
    w.context_per_iter[iter].push_back(
        so::AreaAnnotation{static_cast<Pre>(i), {{start, end}}});
  }
  return w;
}

std::vector<IterMatch> AssemblePerIteration(const Workload& w,
                                            so::StandoffOp op, bool naive) {
  std::vector<IterMatch> out;
  for (const auto& [iter, annotations] : w.context_per_iter) {
    std::vector<Pre> pres;
    if (naive) {
      so::NaiveStandoffJoin(op, annotations, w.candidate_annotations, &pres);
    } else {
      CHECK_OK(so::BasicStandoffJoinColumns(op, annotations, w.index.columns(),
                                            w.index.annotated_ids(), &pres));
    }
    for (Pre pre : pres) out.push_back(IterMatch{iter, pre});
  }
  return out;
}

}  // namespace

static void TestDifferential() {
  const so::StandoffOp kOps[] = {
      so::StandoffOp::kSelectNarrow, so::StandoffOp::kSelectWide,
      so::StandoffOp::kRejectNarrow, so::StandoffOp::kRejectWide};
  const std::vector<simd::Level> levels = DispatchLevels();
  int comparisons = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const Workload w = MakeWorkload(seed);
    for (so::StandoffOp op : kOps) {
      const std::vector<IterMatch> oracle = test::OracleStandoffJoin(
          op, w.context, test::Rows(w.index), w.index.annotated_ids(),
          w.iter_count);

      // Serial loop-lifted kernel: both active structures, with and
      // without skip-based (galloping) merging, across every supported
      // SIMD dispatch level, sharing one arena so buffer reuse is
      // exercised across differing workloads too.
      so::JoinArena arena;
      for (so::ActiveListKind kind :
           {so::ActiveListKind::kSortedList, so::ActiveListKind::kEndHeap}) {
        for (bool gallop : {true, false}) {
          for (simd::Level level : levels) {
            so::JoinOptions join;
            join.active_list = kind;
            join.gallop = gallop;
            join.simd = level;
            join.arena = &arena;
            std::vector<IterMatch> lifted;
            CHECK_OK(so::LoopLiftedStandoffJoinColumns(
                op, w.context, w.index.columns(),
                w.index.annotated_ids(), w.iter_count, &lifted, join));
            CHECK(lifted == oracle);
            ++comparisons;
          }
        }
      }

      // Per-iteration basic merge join and the quadratic naive
      // reference: the paper's serial baselines.
      CHECK(AssemblePerIteration(w, op, /*naive=*/false) == oracle);
      ++comparisons;
      CHECK(AssemblePerIteration(w, op, /*naive=*/true) == oracle);
      ++comparisons;
    }
  }
  const int serial_combos = 4 * static_cast<int>(levels.size());
  CHECK_EQ(comparisons, 30 * 4 * (serial_combos + 1 + 1));
}

int main() {
  RUN_TEST(TestDifferential);
  TEST_MAIN();
}
