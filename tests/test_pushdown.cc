// Name-test pushdown equivalence (Section 3.3 (iii)): joining against the
// element-name-intersected candidate sequence must give the same result
// as joining against the full region index and filtering afterwards.
#include <string>

#include "common/rng.h"
#include "standoff/merge_join.h"
#include "storage/document_store.h"
#include "tests/harness.h"

using namespace standoff;
using so::IterMatch;
using storage::Pre;

static void TestPushdownEquivalence() {
  Rng rng(5);
  std::string xml = "<r>";
  for (int i = 0; i < 500; ++i) {
    int64_t start = rng.UniformRange(0, 10000);
    int64_t end = start + rng.UniformRange(0, 200);
    xml += std::string("<") + (i % 10 == 0 ? "needle" : "hay") +
           " start=\"" + std::to_string(start) + "\" end=\"" +
           std::to_string(end) + "\"/>";
  }
  xml += "</r>";
  storage::DocumentStore store;
  CHECK_OK(store.AddDocumentText("p.xml", xml));
  so::RegionIndexCache cache;
  auto index = cache.Get(store, 0, so::StandoffConfig{});
  CHECK_OK(index);
  CHECK_EQ((*index)->size(), 500u);
  const storage::NameId needle = store.names().Lookup("needle");
  const storage::Span<Pre> needle_pres =
      store.document(0).element_index.Lookup(needle);
  CHECK_EQ(needle_pres.size(), 50u);

  std::vector<so::IterRegion> context;
  for (uint32_t i = 0; i < 16; ++i) {
    int64_t start = rng.UniformRange(0, 9000);
    context.push_back(so::IterRegion{i, start, start + 1500});
  }

  // (a) pushdown: intersect first, join the small sequence.
  const so::RegionColumnsData candidates =
      (*index)->IntersectColumns(needle_pres);
  CHECK_EQ(candidates.size(), 50u);
  std::vector<IterMatch> pushed;
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(
      so::StandoffOp::kSelectNarrow, context, candidates.View(),
      needle_pres, 16, &pushed));

  // (b) no pushdown: join everything, filter by name afterwards.
  std::vector<IterMatch> full;
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(
      so::StandoffOp::kSelectNarrow, context, (*index)->columns(),
      (*index)->annotated_ids(), 16, &full));
  std::vector<IterMatch> filtered;
  for (const IterMatch& m : full) {
    if (store.table(0).name(m.pre) == needle) filtered.push_back(m);
  }
  CHECK(pushed == filtered);
  CHECK(!pushed.empty());
  // Pushdown also holds for reject: complement against the name-filtered
  // universe.
  std::vector<IterMatch> pushed_reject;
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(
      so::StandoffOp::kRejectNarrow, context, candidates.View(),
      needle_pres, 16, &pushed_reject));
  std::vector<IterMatch> full_reject;
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(
      so::StandoffOp::kRejectNarrow, context, (*index)->columns(),
      (*index)->annotated_ids(), 16, &full_reject));
  std::vector<IterMatch> filtered_reject;
  for (const IterMatch& m : full_reject) {
    if (store.table(0).name(m.pre) == needle) filtered_reject.push_back(m);
  }
  CHECK(pushed_reject == filtered_reject);
}

int main() {
  RUN_TEST(TestPushdownEquivalence);
  TEST_MAIN();
}
