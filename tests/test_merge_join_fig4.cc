// The Figure 4 worked example: contexts c1=(iter1,[0,15]) c2=(iter2,[12,35])
// c3=(iter1,[20,30]) c4=(iter1,[55,80]) against candidates r1=[5,10]
// r2=[22,45] r3=[40,60] r4=[65,70]; select-narrow must produce exactly
// (iter1, r1) and (iter1, r4).
#include "standoff/merge_join.h"
#include "tests/harness.h"
#include "tests/oracle.h"

using namespace standoff;
using so::IterMatch;
using so::IterRegion;
using so::RegionEntry;

namespace {

so::RegionIndex Fig4Candidates() {
  return so::RegionIndex::FromEntries(
      {{5, 10, 2}, {22, 45, 3}, {40, 60, 4}, {65, 70, 5}});
}

const std::vector<IterRegion>& Fig4Context() {
  static const std::vector<IterRegion>* rows = new std::vector<IterRegion>{
      {0, 0, 15}, {1, 12, 35}, {0, 20, 30}, {0, 55, 80}};
  return *rows;
}

class CountingTrace : public so::TraceSink {
 public:
  void Event(const std::string& what) override {
    ++events_;
    if (what.find("match") != std::string::npos) ++matches_;
  }
  int events() const { return events_; }
  int matches() const { return matches_; }

 private:
  int events_ = 0;
  int matches_ = 0;
};

void CheckFig4Result(const std::vector<IterMatch>& out) {
  CHECK_EQ(out.size(), 2u);
  if (out.size() == 2) {
    CHECK(out[0] == (IterMatch{0, 2}));  // (iter1, r1)
    CHECK(out[1] == (IterMatch{0, 5}));  // (iter1, r4)
  }
}

}  // namespace

static void TestLoopLiftedSelectNarrow() {
  so::RegionIndex index = Fig4Candidates();
  for (so::ActiveListKind kind :
       {so::ActiveListKind::kSortedList, so::ActiveListKind::kEndHeap}) {
    for (bool prune : {true, false}) {
      for (bool gallop : {true, false}) {
        so::JoinOptions options;
        options.active_list = kind;
        options.prune_contained_contexts = prune;
        options.gallop = gallop;
        so::JoinStats stats;
        options.stats = &stats;
        std::vector<IterMatch> out;
        CHECK_OK(so::LoopLiftedStandoffJoinColumns(
            so::StandoffOp::kSelectNarrow, Fig4Context(), index.columns(),
            index.annotated_ids(), 2, &out, options));
        CheckFig4Result(out);
        // Every candidate is either probed or provably-unmatchable and
        // galloped over; without galloping all four are probed. In the
        // Figure 4 shape r3=[40,60] lies between c3's retirement and
        // c4's activation, so it is exactly the galloped one.
        CHECK_EQ(stats.candidates_scanned + stats.candidates_skipped, 4u);
        CHECK_EQ(stats.candidates_skipped, gallop ? 1u : 0u);
        CHECK(stats.active_peak >= 1);
      }
    }
  }
}

static void TestTraceEmitsSteps() {
  so::RegionIndex index = Fig4Candidates();
  CountingTrace trace;
  so::JoinOptions options;
  options.trace = &trace;
  std::vector<IterMatch> out;
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(
      so::StandoffOp::kSelectNarrow, Fig4Context(), index.columns(),
      index.annotated_ids(), 2, &out, options));
  CheckFig4Result(out);
  CHECK(trace.events() >= 8);  // reads, activations, retirements, matches
  CHECK_EQ(trace.matches(), 2);
}

static void TestAgainstBasicAndNaive() {
  so::RegionIndex index = Fig4Candidates();
  // Per-iteration context annotation lists.
  std::vector<std::vector<so::AreaAnnotation>> per_iter{
      {{0, {{0, 15}}}, {2, {{20, 30}}}, {3, {{55, 80}}}},
      {{1, {{12, 35}}}},
  };
  std::vector<so::AreaAnnotation> candidate_annotations;
  for (const RegionEntry& e : test::Rows(index)) {
    candidate_annotations.push_back(
        so::AreaAnnotation{e.id, {{e.start, e.end}}});
  }
  // Iter 0 -> {r1, r4}; iter 1 -> {}.
  std::vector<storage::Pre> basic_out;
  CHECK_OK(so::BasicStandoffJoinColumns(so::StandoffOp::kSelectNarrow,
                                        per_iter[0], index.columns(),
                                        index.annotated_ids(), &basic_out));
  CHECK_EQ(basic_out.size(), 2u);
  CHECK_EQ(basic_out[0], 2u);
  CHECK_EQ(basic_out[1], 5u);
  CHECK_OK(so::BasicStandoffJoinColumns(so::StandoffOp::kSelectNarrow,
                                        per_iter[1], index.columns(),
                                        index.annotated_ids(), &basic_out));
  CHECK(basic_out.empty());

  std::vector<storage::Pre> naive_out;
  so::NaiveStandoffJoin(so::StandoffOp::kSelectNarrow, per_iter[0],
                        candidate_annotations, &naive_out);
  CHECK_EQ(naive_out.size(), 2u);
  so::NaiveStandoffJoin(so::StandoffOp::kSelectNarrow, per_iter[1],
                        candidate_annotations, &naive_out);
  CHECK(naive_out.empty());
}

static void TestPruningCollapsesNestedContexts() {
  // 100 nested same-iteration contexts: all but the outermost prune away.
  std::vector<IterRegion> context;
  for (int i = 0; i < 100; ++i) {
    context.push_back(IterRegion{0, static_cast<int64_t>(i),
                                 static_cast<int64_t>(1000 - i)});
  }
  so::RegionIndex index =
      so::RegionIndex::FromEntries({{100, 200, 2}, {300, 900, 3}});
  so::JoinStats stats;
  so::JoinOptions options;
  options.stats = &stats;
  std::vector<IterMatch> out;
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(
      so::StandoffOp::kSelectNarrow, context, index.columns(),
      index.annotated_ids(), 1, &out, options));
  CHECK_EQ(out.size(), 2u);
  CHECK_EQ(stats.contexts_skipped, 99u);
  CHECK_EQ(stats.active_peak, 1u);

  options.prune_contained_contexts = false;
  so::JoinStats stats_off;
  options.stats = &stats_off;
  std::vector<IterMatch> out_off;
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(
      so::StandoffOp::kSelectNarrow, context, index.columns(),
      index.annotated_ids(), 1, &out_off, options));
  CHECK(out == out_off);
  CHECK_EQ(stats_off.contexts_skipped, 0u);
  CHECK(stats_off.active_peak > 50);
}

static void TestValidation() {
  so::RegionIndex index = Fig4Candidates();
  std::vector<IterMatch> out;
  // Iteration out of range.
  CHECK(!so::LoopLiftedStandoffJoinColumns(
      so::StandoffOp::kSelectNarrow, Fig4Context(), index.columns(),
      index.annotated_ids(), 1, &out)
             .ok());
  // A context row that ends before it starts.
  CHECK(!so::LoopLiftedStandoffJoinColumns(
             so::StandoffOp::kSelectNarrow, {{0, 50, 10}}, index.columns(),
             index.annotated_ids(), 1, &out)
             .ok());
  // Unsorted external candidates.
  so::RegionColumnsData unsorted;
  unsorted.Append(50, 60, 3);
  unsorted.Append(10, 20, 2);
  CHECK(!so::LoopLiftedStandoffJoinColumns(
             so::StandoffOp::kSelectNarrow, Fig4Context(), unsorted.View(),
             index.annotated_ids(), 2, &out)
             .ok());
}

int main() {
  RUN_TEST(TestLoopLiftedSelectNarrow);
  RUN_TEST(TestTraceEmitsSteps);
  RUN_TEST(TestAgainstBasicAndNaive);
  RUN_TEST(TestPruningCollapsesNestedContexts);
  RUN_TEST(TestValidation);
  TEST_MAIN();
}
