// Randomized cross-check over seeded workloads: for every operator, both
// active-list structures, and pruning on/off, the loop-lifted kernel must
// agree with per-iteration BasicStandoffJoinColumns and with the quadratic
// NaiveStandoffJoin reference.
#include <map>

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
  const int64_t universe = 1000;
  const size_t candidates = 40 + rng.UniformRange(0, 60);
  std::vector<RegionEntry> entries;
  for (size_t i = 0; i < candidates; ++i) {
    int64_t start = rng.UniformRange(0, universe);
    int64_t end = start + rng.UniformRange(0, 80);
    entries.push_back(RegionEntry{start, end, static_cast<Pre>(i + 2)});
  }
  w.index = so::RegionIndex::FromEntries(std::move(entries));
  for (const RegionEntry& e : test::Rows(w.index)) {
    w.candidate_annotations.push_back(
        so::AreaAnnotation{e.id, {{e.start, e.end}}});
  }
  w.iter_count = static_cast<uint32_t>(1 + rng.UniformRange(0, 7));
  const size_t rows = 1 + static_cast<size_t>(rng.UniformRange(0, 19));
  for (size_t i = 0; i < rows; ++i) {
    uint32_t iter =
        static_cast<uint32_t>(rng.UniformRange(0, w.iter_count - 1));
    int64_t start = rng.UniformRange(0, universe);
    int64_t end = start + rng.UniformRange(0, 200);
    w.context.push_back(IterRegion{iter, start, end});
    w.context_per_iter[iter].push_back(
        so::AreaAnnotation{static_cast<Pre>(i), {{start, end}}});
  }
  return w;
}

std::vector<IterMatch> RunLifted(const Workload& w, so::StandoffOp op,
                                 so::ActiveListKind kind, bool prune) {
  so::JoinOptions options;
  options.active_list = kind;
  options.prune_contained_contexts = prune;
  std::vector<IterMatch> out;
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(
      op, w.context, w.index.columns(), w.index.annotated_ids(),
      w.iter_count, &out, options));
  return out;
}

std::vector<IterMatch> RunBasicPerIteration(const Workload& w,
                                            so::StandoffOp op) {
  std::vector<IterMatch> out;
  for (const auto& [iter, annotations] : w.context_per_iter) {
    std::vector<Pre> pres;
    CHECK_OK(so::BasicStandoffJoinColumns(op, annotations, w.index.columns(),
                                          w.index.annotated_ids(), &pres));
    for (Pre pre : pres) out.push_back(IterMatch{iter, pre});
  }
  return out;
}

std::vector<IterMatch> RunNaivePerIteration(const Workload& w,
                                            so::StandoffOp op) {
  std::vector<IterMatch> out;
  for (const auto& [iter, annotations] : w.context_per_iter) {
    std::vector<Pre> pres;
    so::NaiveStandoffJoin(op, annotations, w.candidate_annotations, &pres);
    for (Pre pre : pres) out.push_back(IterMatch{iter, pre});
  }
  return out;
}

}  // namespace

static void TestCrossCheck() {
  const so::StandoffOp kOps[] = {
      so::StandoffOp::kSelectNarrow, so::StandoffOp::kSelectWide,
      so::StandoffOp::kRejectNarrow, so::StandoffOp::kRejectWide};
  int comparisons = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Workload w = MakeWorkload(seed);
    for (so::StandoffOp op : kOps) {
      const std::vector<IterMatch> basic = RunBasicPerIteration(w, op);
      const std::vector<IterMatch> naive = RunNaivePerIteration(w, op);
      CHECK(basic == naive);
      for (so::ActiveListKind kind :
           {so::ActiveListKind::kSortedList, so::ActiveListKind::kEndHeap}) {
        for (bool prune : {true, false}) {
          const std::vector<IterMatch> lifted = RunLifted(w, op, kind, prune);
          if (!(lifted == basic)) {
            std::fprintf(stderr,
                         "mismatch: seed=%llu op=%s kind=%d prune=%d "
                         "(lifted=%zu basic=%zu rows)\n",
                         static_cast<unsigned long long>(seed),
                         so::StandoffOpName(op), static_cast<int>(kind),
                         prune, lifted.size(), basic.size());
            CHECK(lifted == basic);
          }
          ++comparisons;
        }
      }
    }
  }
  CHECK_EQ(comparisons, 25 * 4 * 4);
}

static void TestEmptyInputs() {
  Workload w = MakeWorkload(3);
  std::vector<IterMatch> out;
  // No context rows: selects are empty; rejects have no live iterations.
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(so::StandoffOp::kSelectNarrow, {},
                                             w.index.columns(),
                                             w.index.annotated_ids(), 4, &out));
  CHECK(out.empty());
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(so::StandoffOp::kRejectNarrow, {},
                                             w.index.columns(),
                                             w.index.annotated_ids(), 4, &out));
  CHECK(out.empty());
  // A duplicated (but sorted) candidate universe must not leak duplicate
  // reject rows.
  {
    std::vector<Pre> dup_universe;
    for (Pre id : w.index.annotated_ids()) {
      dup_universe.push_back(id);
      dup_universe.push_back(id);
    }
    std::vector<IterMatch> dedup_out;
    CHECK_OK(so::LoopLiftedStandoffJoinColumns(
        so::StandoffOp::kRejectNarrow, w.context, w.index.columns(),
        dup_universe, w.iter_count, &dedup_out));
    std::vector<IterMatch> plain_out;
    CHECK_OK(so::LoopLiftedStandoffJoinColumns(
        so::StandoffOp::kRejectNarrow, w.context, w.index.columns(),
        w.index.annotated_ids(), w.iter_count, &plain_out));
    CHECK(dedup_out == plain_out);
  }
  // No candidates: reject still yields nothing (empty universe).
  so::RegionIndex empty_index;
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(
      so::StandoffOp::kRejectWide, w.context, empty_index.columns(),
      empty_index.annotated_ids(), w.iter_count, &out));
  CHECK(out.empty());
}

int main() {
  RUN_TEST(TestCrossCheck);
  RUN_TEST(TestEmptyInputs);
  TEST_MAIN();
}
