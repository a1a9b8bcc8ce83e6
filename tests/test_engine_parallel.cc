// Parallel execution must be invisible in results: every engine-mode
// golden (the Section 3.1 operator table, the Figure 4 trace, the
// Figure 6 query set incl. its DNF/timeout shape) re-run with
// ExecOptions{num_threads=4, shard_count=3} and compared against the
// single-threaded golden output.
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "standoff/parallel_join.h"
#include "storage/document_store.h"
#include "tests/harness.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xmark/standoff_transform.h"
#include "xquery/engine.h"

using namespace standoff;
using algebra::Item;

namespace {

constexpr uint32_t kThreads = 4;
constexpr uint32_t kShards = 3;

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

void MakeParallel(xquery::Engine* engine) {
  engine->mutable_options()->exec.num_threads = kThreads;
  engine->mutable_options()->exec.shard_count = kShards;
}

bool ItemsEqual(const Item& a, const Item& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Item::Kind::kNode: return a.stored_node() == b.stored_node();
    case Item::Kind::kInt: return a.int_value() == b.int_value();
    case Item::Kind::kDouble: return a.double_value() == b.double_value();
    case Item::Kind::kString: return a.string_value() == b.string_value();
  }
  return false;
}

std::string Ids(const storage::DocumentStore& store,
                const algebra::QueryResult& result) {
  std::string out;
  for (const algebra::Item& item : result.items) {
    auto node = item.stored_node();
    auto [found, value] = store.table(node.doc).FindAttribute(
        node.pre, store.names().Lookup("id"));
    if (!out.empty()) out += " ";
    out += found ? std::string(value) : "?";
  }
  return out;
}

class RecordTrace : public so::TraceSink {
 public:
  void Event(const std::string& what) override { events.push_back(what); }
  std::vector<std::string> events;
};

}  // namespace

static void TestSection31TableParallel() {
  storage::DocumentStore store;
  CHECK_OK(store.AddDocumentText("video.xml", kVideoXml));
  const struct {
    const char* axis;
    const char* expected;
  } kCases[] = {
      {"select-narrow", "Intro"},
      {"select-wide", "Intro Interview"},
      {"reject-narrow", "Interview Outro"},
      {"reject-wide", "Outro"},
  };
  const xquery::StandoffMode kModes[] = {
      xquery::StandoffMode::kUdfNoCandidates,
      xquery::StandoffMode::kUdfCandidates,
      xquery::StandoffMode::kBasicMergeJoin,
      xquery::StandoffMode::kLoopLifted,
  };
  for (xquery::StandoffMode mode : kModes) {
    for (const auto& c : kCases) {
      xquery::Engine engine(&store);
      engine.set_standoff_mode(mode);
      MakeParallel(&engine);
      std::string query = "declare option standoff-type \"timecode\"; "
                          "//music[@artist = \"U2\"]/" +
                          std::string(c.axis) + "::shot";
      auto r = engine.Evaluate(query);
      CHECK_OK(r);
      if (r.ok()) CHECK_EQ(Ids(store, *r), std::string(c.expected));
    }
  }
}

static void TestFigure4TraceParallel() {
  // The Figure 4 fixture (Section 4.5 example input). A trace sink is a
  // serial contract: the parallel kernel must fall back and reproduce
  // the serial trace and matches exactly, even with threads and shards
  // requested.
  storage::DocumentStore store;
  CHECK_OK(store.AddDocumentText("fig4.xml",
                                 R"(<r><c start="5" end="10"/>
                                       <c start="22" end="45"/>
                                       <c start="40" end="60"/>
                                       <c start="65" end="70"/></r>)"));
  auto index_result = so::RegionIndex::Build(
      store.table(0), so::Resolve(so::StandoffConfig{}, store.names()));
  CHECK_OK(index_result);
  so::RegionIndex index = index_result.MoveValueUnsafe();
  const std::vector<so::IterRegion> context{
      {0, 0, 15, 0}, {1, 12, 35, 1}, {0, 20, 30, 2}, {0, 55, 80, 3}};
  const std::vector<uint32_t> ann_iters{0, 1, 0, 0};

  RecordTrace serial_trace;
  std::vector<so::IterMatch> serial_out;
  {
    so::JoinOptions options;
    options.trace = &serial_trace;
    CHECK_OK(so::LoopLiftedStandoffJoinColumns(
        so::StandoffOp::kSelectNarrow, context, ann_iters, index.columns(),
        index.annotated_ids(), 2, &serial_out, options));
  }

  ThreadPool pool(kThreads - 1);
  RecordTrace parallel_trace;
  std::vector<so::IterMatch> parallel_out;
  {
    so::ParallelJoinOptions options;
    options.pool = &pool;
    options.iter_blocks = kThreads;
    options.candidate_shards = kShards;
    options.join.trace = &parallel_trace;
    CHECK_OK(so::ParallelLoopLiftedStandoffJoinColumns(
        so::StandoffOp::kSelectNarrow, context, ann_iters, index.columns(),
        index.annotated_ids(), 2, &parallel_out, options));
  }

  CHECK(parallel_out == serial_out);
  CHECK(parallel_trace.events == serial_trace.events);
  // The paper's expected result: (iter1, r1) (iter1, r4).
  CHECK_EQ(serial_out.size(), static_cast<size_t>(2));
  if (serial_out.size() == 2) {
    CHECK(serial_out[0] == (so::IterMatch{0, 2}));
    CHECK(serial_out[1] == (so::IterMatch{0, 5}));
  }

  // Without a trace sink the decomposition actually runs — and must
  // produce the same rows.
  so::ParallelJoinOptions options;
  options.pool = &pool;
  options.iter_blocks = kThreads;
  options.candidate_shards = kShards;
  std::vector<so::IterMatch> grid_out;
  CHECK_OK(so::ParallelLoopLiftedStandoffJoinColumns(
      so::StandoffOp::kSelectNarrow, context, ann_iters, index.columns(),
      index.annotated_ids(), 2, &grid_out, options));
  CHECK(grid_out == serial_out);
}

static void TestFigure6QueriesParallel() {
  xmark::XmarkOptions options;
  options.scale = 0.003;
  std::string nested = xmark::GenerateXmark(options);
  auto so_doc = xmark::ToStandoff(nested);
  CHECK_OK(so_doc);
  storage::DocumentStore store;
  CHECK_OK(store.AddDocumentText("s.xml", so_doc->xml));

  const xquery::StandoffMode kModes[] = {
      xquery::StandoffMode::kUdfNoCandidates,
      xquery::StandoffMode::kUdfCandidates,
      xquery::StandoffMode::kBasicMergeJoin,
      xquery::StandoffMode::kLoopLifted,
  };
  for (const xmark::XmarkQuery& query : xmark::BenchmarkQueries()) {
    for (xquery::StandoffMode mode : kModes) {
      xquery::Engine serial_engine(&store);
      serial_engine.set_standoff_mode(mode);
      auto golden = serial_engine.Evaluate(query.standoff);
      CHECK_OK(golden);

      xquery::Engine parallel_engine(&store);
      parallel_engine.set_standoff_mode(mode);
      MakeParallel(&parallel_engine);
      auto parallel = parallel_engine.Evaluate(query.standoff);
      CHECK_OK(parallel);
      if (!golden.ok() || !parallel.ok()) continue;

      CHECK(!golden->items.empty());
      CHECK_EQ(parallel->items.size(), golden->items.size());
      if (parallel->items.size() == golden->items.size()) {
        for (size_t i = 0; i < golden->items.size(); ++i) {
          if (!ItemsEqual(parallel->items[i], golden->items[i])) {
            std::fprintf(stderr, "  %s: mode %s differs at item %zu\n",
                         query.name, xquery::StandoffModeName(mode), i);
            CHECK(false);
            break;
          }
        }
      }
    }
  }
}

static void TestDnfShapeParallel() {
  // Figure 6's DNF rows are timeouts; a parallel run must still report
  // TIMED_OUT (from whichever task trips the deadline first), not hang
  // or crash.
  xmark::XmarkOptions options;
  options.scale = 0.01;
  std::string nested = xmark::GenerateXmark(options);
  auto so_doc = xmark::ToStandoff(nested);
  CHECK_OK(so_doc);
  storage::DocumentStore store;
  CHECK_OK(store.AddDocumentText("s.xml", so_doc->xml));
  xquery::Engine engine(&store);
  engine.set_standoff_mode(xquery::StandoffMode::kUdfNoCandidates);
  MakeParallel(&engine);
  engine.mutable_options()->timeout_seconds = 1e-7;
  auto r = engine.Evaluate(
      "for $a in /site/select-narrow::open_auctions"
      "/select-narrow::open_auction "
      "return count($a/select-narrow::bidder)");
  CHECK(!r.ok());
  CHECK(r.status().IsTimedOut());
}

int main() {
  RUN_TEST(TestSection31TableParallel);
  RUN_TEST(TestFigure4TraceParallel);
  RUN_TEST(TestFigure6QueriesParallel);
  RUN_TEST(TestDnfShapeParallel);
  TEST_MAIN();
}
