// Performance sanity check (ctest label: perfsmoke): the paper's core
// claim — ONE loop-lifted merge pass answers every iteration for less
// than per-iteration Basic evaluation re-scanning the index each time —
// must hold on CPU time, not just in the benches. At 200 iterations the
// Basic mode does 200 index scans, so even on a noisy box the ratio is
// enormous; the assertion (loop-lifted <= Basic) therefore guards the
// claim without being flaky.
#include <ctime>

#include "common/rng.h"
#include "standoff/merge_join.h"
#include "tests/harness.h"

using namespace standoff;
using so::IterMatch;
using so::IterRegion;
using so::RegionEntry;
using storage::Pre;

namespace {

double CpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

}  // namespace

static void TestLoopLiftedBeatsBasicAt200Iterations() {
  Rng rng(2006);
  const int64_t universe = 1000000;
  const size_t candidates = 20000;
  const uint32_t iters = 200;

  std::vector<RegionEntry> entries;
  entries.reserve(candidates);
  for (size_t i = 0; i < candidates; ++i) {
    const int64_t start = rng.UniformRange(0, universe);
    entries.push_back(RegionEntry{start, start + rng.UniformRange(0, 50),
                                  static_cast<Pre>(i + 2)});
  }
  so::RegionIndex index = so::RegionIndex::FromEntries(std::move(entries));

  std::vector<IterRegion> context;
  std::vector<std::vector<so::AreaAnnotation>> context_per_iter(iters);
  const int64_t width = universe / iters;
  for (uint32_t it = 0; it < iters; ++it) {
    const int64_t start = static_cast<int64_t>(it) * width;
    context.push_back(IterRegion{it, start, start + width});
    context_per_iter[it].push_back(
        so::AreaAnnotation{0, {{start, start + width}}});
  }

  // Loop-lifted: one pass for all 200 iterations, warm arena.
  so::JoinArena arena;
  so::JoinOptions options;
  options.arena = &arena;
  std::vector<IterMatch> lifted;
  size_t lifted_rows = 0;
  const double lifted_begin = CpuSeconds();
  for (int rep = 0; rep < 3; ++rep) {
    CHECK_OK(so::LoopLiftedStandoffJoinColumns(
        so::StandoffOp::kSelectNarrow, context, index.columns(),
        index.annotated_ids(), iters, &lifted, options));
    lifted_rows = lifted.size();
  }
  const double lifted_cpu = CpuSeconds() - lifted_begin;

  // Basic: one merge pass PER iteration, 200 full index re-scans. This
  // is the PAPER's Basic alternative, so galloping is off — with it on,
  // each call would skip to its context span and the margin this
  // assertion relies on would shrink to scheduling noise.
  so::JoinOptions basic_options;
  basic_options.gallop = false;
  size_t basic_rows = 0;
  const double basic_begin = CpuSeconds();
  for (int rep = 0; rep < 3; ++rep) {
    basic_rows = 0;
    for (uint32_t it = 0; it < iters; ++it) {
      std::vector<Pre> out;
      CHECK_OK(so::BasicStandoffJoinColumns(
          so::StandoffOp::kSelectNarrow, context_per_iter[it],
          index.columns(), index.annotated_ids(), &out, basic_options));
      basic_rows += out.size();
    }
  }
  const double basic_cpu = CpuSeconds() - basic_begin;

  CHECK_EQ(lifted_rows, basic_rows);  // same answers, then compare cost
  CHECK(lifted_rows > 0);
  std::printf("  loop-lifted %.1fms vs basic %.1fms CPU (%.0fx)\n",
              lifted_cpu * 1e3, basic_cpu * 1e3,
              lifted_cpu > 0 ? basic_cpu / lifted_cpu : 0.0);
  CHECK(lifted_cpu <= basic_cpu);
}

int main() {
  RUN_TEST(TestLoopLiftedBeatsBasicAt200Iterations);
  TEST_MAIN();
}
