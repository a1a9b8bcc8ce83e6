// Regression tests for the empty-input edge cases on EVERY kernel:
// an empty candidate list, an empty region index, or an empty context
// must return OK with zero rows (for selects; rejects additionally
// yield zero rows whenever the universe is empty) on the naive, basic
// and loop-lifted paths alike — previously only the loop-lifted path
// was exercised.
#include "standoff/merge_join.h"
#include "tests/harness.h"

using namespace standoff;
using so::IterMatch;
using so::IterRegion;
using storage::Pre;

namespace {

const std::vector<so::AreaAnnotation> kSomeContext = {
    {0, {{10, 50}}},
    {0, {{60, 90}}},
};

const std::vector<IterRegion> kSomeIterContext = {
    {0, 10, 50},
    {1, 60, 90},
};

}  // namespace

static void TestNaiveEmptyInputs() {
  for (so::StandoffOp op :
       {so::StandoffOp::kSelectNarrow, so::StandoffOp::kSelectWide,
        so::StandoffOp::kRejectNarrow, so::StandoffOp::kRejectWide}) {
    std::vector<Pre> out = {99};  // must be cleared
    so::NaiveStandoffJoin(op, kSomeContext, {}, &out);
    CHECK(out.empty());
    out = {99};
    so::NaiveStandoffJoin(op, {}, {}, &out);
    CHECK(out.empty());
  }
  // Empty context with candidates: selects empty; naive reject keeps
  // every unmatched candidate.
  std::vector<so::AreaAnnotation> candidates = {{7, {{1, 2}}}};
  std::vector<Pre> out;
  so::NaiveStandoffJoin(so::StandoffOp::kSelectWide, {}, candidates, &out);
  CHECK(out.empty());
}

static void TestBasicEmptyInputs() {
  so::RegionIndex empty_index;
  for (so::StandoffOp op :
       {so::StandoffOp::kSelectNarrow, so::StandoffOp::kSelectWide,
        so::StandoffOp::kRejectNarrow, so::StandoffOp::kRejectWide}) {
    std::vector<Pre> out = {99};
    CHECK_OK(so::BasicStandoffJoinColumns(op, kSomeContext,
                                          empty_index.columns(),
                                          empty_index.annotated_ids(), &out));
    CHECK(out.empty());
    out = {99};
    CHECK_OK(so::BasicStandoffJoinColumns(op, {}, empty_index.columns(),
                                          empty_index.annotated_ids(), &out));
    CHECK(out.empty());
  }
}

static void TestLoopLiftedEmptyInputs() {
  so::RegionIndex empty_index;
  for (so::StandoffOp op :
       {so::StandoffOp::kSelectNarrow, so::StandoffOp::kSelectWide,
        so::StandoffOp::kRejectNarrow, so::StandoffOp::kRejectWide}) {
    std::vector<IterMatch> out = {{3, 3}};
    CHECK_OK(so::LoopLiftedStandoffJoinColumns(
        op, kSomeIterContext, empty_index.columns(),
        empty_index.annotated_ids(), 2, &out));
    CHECK(out.empty());
    out = {{3, 3}};
    CHECK_OK(so::LoopLiftedStandoffJoinColumns(
        op, {}, empty_index.columns(), empty_index.annotated_ids(), 0,
        &out));
    CHECK(out.empty());
  }
}

int main() {
  RUN_TEST(TestNaiveEmptyInputs);
  RUN_TEST(TestBasicEmptyInputs);
  RUN_TEST(TestLoopLiftedEmptyInputs);
  TEST_MAIN();
}
