// Section 3.1 table semantics on the video/audio document: the four
// StandOff operators between music[artist=U2] and the shots, checked for
// all three join implementations.
#include "standoff/merge_join.h"
#include "storage/document_store.h"
#include "tests/harness.h"
#include "tests/oracle.h"

using namespace standoff;
using so::IterMatch;
using storage::Pre;

namespace {

const char* const kVideoXml = R"(<sample>
  <video>
    <shot id="Intro" start="0:00" end="0:08"/>
    <shot id="Interview" start="0:08" end="1:04"/>
    <shot id="Outro" start="1:04" end="1:34"/>
  </video>
  <audio>
    <music artist="U2" start="0:00" end="0:31"/>
    <music artist="Bach" start="0:52" end="1:34"/>
  </audio>
</sample>)";

struct Fixture {
  storage::DocumentStore store;
  so::RegionIndex index;
  std::vector<Pre> shot_pres;                 // candidate universe
  so::RegionColumnsData shot_entries;         // pushdown intersection
  std::vector<so::AreaAnnotation> u2_context;
  std::vector<so::AreaAnnotation> shot_annotations;

  Fixture() {
    CHECK_OK(store.AddDocumentText("video.xml", kVideoXml));
    auto built = so::RegionIndex::Build(
        store.table(0), so::Resolve(so::StandoffConfig{}, store.names()));
    CHECK_OK(built);
    index = built.MoveValueUnsafe();
    const storage::Span<Pre> shots =
        store.document(0).element_index.Lookup(store.names().Lookup("shot"));
    shot_pres.assign(shots.begin(), shots.end());
    shot_entries = index.IntersectColumns(shot_pres);
    u2_context = {{7, {{0, 31}}}};  // music[artist=U2] is pre 7
    for (const so::RegionEntry& e : test::Rows(shot_entries.View())) {
      shot_annotations.push_back(so::AreaAnnotation{e.id, {{e.start, e.end}}});
    }
  }

  std::string Ids(const std::vector<Pre>& pres) {
    std::string out;
    for (Pre pre : pres) {
      auto [found, value] =
          store.table(0).FindAttribute(pre, store.names().Lookup("id"));
      CHECK(found);
      if (!out.empty()) out += " ";
      out += std::string(value);
    }
    return out;
  }
};

}  // namespace

static void TestTableSemantics() {
  Fixture fx;
  const struct {
    so::StandoffOp op;
    const char* expected;
  } kCases[] = {
      {so::StandoffOp::kSelectNarrow, "Intro"},
      {so::StandoffOp::kSelectWide, "Intro Interview"},
      {so::StandoffOp::kRejectNarrow, "Interview Outro"},
      {so::StandoffOp::kRejectWide, "Outro"},
  };
  for (const auto& c : kCases) {
    // Basic merge join.
    std::vector<Pre> basic;
    CHECK_OK(so::BasicStandoffJoinColumns(c.op, fx.u2_context,
                                          fx.shot_entries.View(), fx.shot_pres,
                                          &basic));
    CHECK_EQ(fx.Ids(basic), std::string(c.expected));

    // Naive reference.
    std::vector<Pre> naive;
    so::NaiveStandoffJoin(c.op, fx.u2_context, fx.shot_annotations, &naive);
    CHECK_EQ(fx.Ids(naive), std::string(c.expected));

    // Loop-lifted with a single iteration.
    std::vector<so::IterRegion> context{{0, 0, 31}};
    std::vector<IterMatch> lifted;
    CHECK_OK(so::LoopLiftedStandoffJoinColumns(
        c.op, context, fx.shot_entries.View(), fx.shot_pres, 1, &lifted));
    std::vector<Pre> lifted_pres;
    for (const IterMatch& m : lifted) lifted_pres.push_back(m.pre);
    CHECK_EQ(fx.Ids(lifted_pres), std::string(c.expected));
  }
}

static void TestTwoIterationReject() {
  // Two iterations: iter0 = U2, iter1 = Bach. reject-narrow per iteration
  // complements independently.
  Fixture fx;
  std::vector<so::IterRegion> context{{0, 0, 31}, {1, 52, 94}};
  std::vector<IterMatch> out;
  CHECK_OK(so::LoopLiftedStandoffJoinColumns(
      so::StandoffOp::kRejectNarrow, context, fx.shot_entries.View(),
      fx.shot_pres, 2, &out));
  // iter0: Interview, Outro rejected-narrow vs U2; iter1: Bach contains
  // Outro [64,94], so Intro and Interview remain.
  CHECK_EQ(out.size(), 4u);
  std::vector<Pre> iter0, iter1;
  for (const IterMatch& m : out) (m.iter == 0 ? iter0 : iter1).push_back(m.pre);
  CHECK_EQ(fx.Ids(iter0), std::string("Interview Outro"));
  CHECK_EQ(fx.Ids(iter1), std::string("Intro Interview"));
}

int main() {
  RUN_TEST(TestTableSemantics);
  RUN_TEST(TestTwoIterationReject);
  TEST_MAIN();
}
