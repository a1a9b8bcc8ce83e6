// The server's dispatch must amortize: running N chain queries over
// documents on three shards in query order on one warmed Engine, with
// its shared region indexes, candidate sets, arena, stats and memo,
// performs strictly fewer heap allocations than N independent engines
// evaluating the same queries.
// Verified by counting global operator new invocations, as in
// test_join_arena.
#include <cstdlib>
#include <new>

#include "storage/sharded_store.h"
#include "tests/harness.h"
#include "xquery/engine.h"

namespace {

bool g_counting = false;
size_t g_allocations = 0;

}  // namespace

void* operator new(size_t size) {
  if (g_counting) ++g_allocations;
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](size_t size) { return ::operator new(size); }

// The nothrow forms must be replaced alongside the throwing ones:
// std::stable_sort's temporary buffer allocates via new(nothrow), and
// a default nothrow new paired with the free()-backed delete below is
// an alloc-dealloc mismatch under AddressSanitizer.
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size);
}
void* operator new[](size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace standoff;

namespace {

std::string PlayXml(int scenes) {
  std::string xml = "<play>";
  for (int s = 0; s < scenes; ++s) {
    const int64_t base = s * 1000;
    xml += "<scene start=\"" + std::to_string(base) + "\" end=\"" +
           std::to_string(base + 999) + "\"/>";
    for (int p = 0; p < 4; ++p) {
      const int64_t sp = base + p * 200 + 10;
      xml += "<speech start=\"" + std::to_string(sp) + "\" end=\"" +
             std::to_string(sp + 150) + "\"/>";
      for (int w = 0; w < 5; ++w) {
        const int64_t ws = sp + 5 + w * 25;
        xml += "<word start=\"" + std::to_string(ws) + "\" end=\"" +
               std::to_string(ws + 6) + "\"/>";
      }
    }
  }
  xml += "</play>";
  return xml;
}

xquery::ChainQuery Query(storage::DocId doc) {
  xquery::ChainQuery query;
  query.doc = doc;
  query.context_name = "scene";
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "speech"});
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "word"});
  return query;
}

/// One pass of the server's dispatch: every query, in order, on the
/// connection's engine.
std::vector<StatusOr<xquery::ChainResult>> RunInQueryOrder(
    xquery::Engine* engine, const std::vector<xquery::ChainQuery>& queries) {
  std::vector<StatusOr<xquery::ChainResult>> results;
  results.reserve(queries.size());
  for (const xquery::ChainQuery& query : queries) {
    results.push_back(engine->EvaluateChain(query));
  }
  return results;
}

}  // namespace

static void TestBatchedAllocatesLessThanIndependent() {
  // The allocation counter is a plain size_t, so everything under
  // measurement runs single-threaded.
  storage::ShardedStore store(3);
  std::vector<xquery::ChainQuery> queries;
  for (int d = 0; d < 6; ++d) {
    auto doc = store.AddDocumentText("d" + std::to_string(d), PlayXml(8));
    CHECK_OK(doc);
    queries.push_back(Query(*doc));
  }
  const xquery::EngineOptions options;

  xquery::Engine batch(&store);
  *batch.mutable_options() = options;
  // The first round pays the one-time setup and fills the memo.
  auto warm = RunInQueryOrder(&batch, queries);
  for (const auto& r : warm) CHECK_OK(r);

  g_allocations = 0;
  g_counting = true;
  auto batched_results = RunInQueryOrder(&batch, queries);
  g_counting = false;
  const size_t batched = g_allocations;
  for (const auto& r : batched_results) CHECK_OK(r);
  CHECK(batch.subplan_memo()->hits() > 0);

  g_allocations = 0;
  g_counting = true;
  std::vector<StatusOr<xquery::ChainResult>> independent_results;
  for (const xquery::ChainQuery& query : queries) {
    xquery::Engine engine(&store.store());
    *engine.mutable_options() = options;
    independent_results.push_back(engine.EvaluateChain(query));
  }
  g_counting = false;
  const size_t independent = g_allocations;
  for (const auto& r : independent_results) CHECK_OK(r);

  // Same answers...
  for (size_t i = 0; i < queries.size(); ++i) {
    if (batched_results[i].ok() && independent_results[i].ok()) {
      CHECK(batched_results[i]->matches == independent_results[i]->matches);
    }
  }
  // ...for a fraction of the allocations (indexes, candidate sets, the
  // arena and the memo are cache hits on the warmed engine).
  std::fprintf(stderr, "  batched=%zu independent=%zu allocations\n",
               batched, independent);
  CHECK(batched * 2 < independent);
}

int main() {
  RUN_TEST(TestBatchedAllocatesLessThanIndependent);
  TEST_MAIN();
}
