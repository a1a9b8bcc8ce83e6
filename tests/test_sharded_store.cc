// ShardedStore invariants: round-robin document placement partitions
// the store, and the shared name table keeps NameIds comparable across
// shards.
#include <string>

#include "storage/sharded_store.h"
#include "tests/harness.h"

using namespace standoff;

namespace {

std::string DocXml(int i) {
  std::string xml = "<root>";
  for (int k = 0; k <= i % 4; ++k) {
    const int start = 10 * i + k;
    xml += "<a start=\"" + std::to_string(start) + "\" end=\"" +
           std::to_string(start + 5) + "\"/>";
  }
  xml += "</root>";
  return xml;
}

}  // namespace

static void TestRoundRobinPlacement() {
  for (uint32_t shard_count : {1u, 2u, 7u}) {
    storage::ShardedStore store(shard_count);
    CHECK_EQ(store.shard_count(), shard_count);
    constexpr int kDocs = 11;
    for (int i = 0; i < kDocs; ++i) {
      auto doc = store.AddDocumentText("doc" + std::to_string(i), DocXml(i));
      CHECK_OK(doc);
      if (doc.ok()) CHECK_EQ(store.shard_of(*doc), *doc % shard_count);
    }
    CHECK_EQ(store.document_count(), static_cast<size_t>(kDocs));
    // Shard doc lists partition [0, kDocs).
    std::vector<int> seen(kDocs, 0);
    for (uint32_t s = 0; s < shard_count; ++s) {
      for (storage::DocId doc : store.shard_docs(s)) {
        CHECK_EQ(store.shard_of(doc), s);
        ++seen[doc];
      }
    }
    for (int i = 0; i < kDocs; ++i) CHECK_EQ(seen[i], 1);
  }
}

static void TestSharedNameTable() {
  storage::ShardedStore store(3);
  CHECK_OK(store.AddDocumentText("a.xml", DocXml(0)));
  CHECK_OK(store.AddDocumentText("b.xml", DocXml(1)));
  // Both documents intern "a" and "start" to the same ids.
  const storage::NameId a = store.store().names().Lookup("a");
  CHECK(a != storage::kInvalidName);
  CHECK_EQ(store.store().table(0).name(1), store.store().table(1).name(1));
}

int main() {
  RUN_TEST(TestRoundRobinPlacement);
  RUN_TEST(TestSharedNameTable);
  TEST_MAIN();
}
