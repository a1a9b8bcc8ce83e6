// Snapshot round-trip and rejection tests: a store serialized with
// SaveSnapshot and reopened with Snapshot::Open must be byte-identical
// to the in-memory original — node tables, names, element indexes,
// blobs, shard layout, and every query result across kernels, modes
// and plan modes. Malformed files (truncation, bad
// magic, wrong version, checksum corruption) must be rejected with a
// Status, never UB.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/ingest.h"
#include "storage/snapshot.h"
#include "tests/harness.h"
#include "tests/oracle.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xmark/standoff_transform.h"
#include "xquery/engine.h"

using namespace standoff;
using storage::Pre;

namespace {

std::string TempPath(const char* name) {
  return std::string("/tmp/standoff_test_") + name + "_" +
         std::to_string(::getpid()) + ".sosnap";
}

std::string Elem(const std::string& name, int64_t start, int64_t end) {
  return "<" + name + " start=\"" + std::to_string(start) + "\" end=\"" +
         std::to_string(end) + "\"/>";
}

std::string RandomSoup(uint64_t seed) {
  Rng rng(seed);
  std::string xml = "<play>";
  for (int s = 0; s < 8; ++s) {
    const int64_t start = rng.UniformRange(0, 3000);
    xml += Elem("scene", start, start + rng.UniformRange(100, 1500));
  }
  for (int p = 0; p < 25; ++p) {
    const int64_t start = rng.UniformRange(0, 4000);
    xml += Elem("speech", start, start + rng.UniformRange(5, 400));
  }
  for (int w = 0; w < 60; ++w) {
    const int64_t start = rng.UniformRange(0, 4500);
    xml += Elem("word", start, start + rng.UniformRange(0, 30));
  }
  xml += "<note>some &amp; escaped <![CDATA[and raw]]> text</note>";
  xml += "</play>";
  return xml;
}

/// Deep equality of two stores through the public accessors only.
void CheckStoresEqual(const storage::DocumentStore& a,
                      const storage::DocumentStore& b) {
  CHECK_EQ(a.document_count(), b.document_count());
  CHECK_EQ(a.names().size(), b.names().size());
  for (storage::NameId id = 0; id < a.names().size(); ++id) {
    CHECK_EQ(a.names().name(id), b.names().name(id));
    CHECK_EQ(b.names().Lookup(a.names().name(id)), id);
  }
  for (storage::DocId doc = 0; doc < a.document_count(); ++doc) {
    CHECK_EQ(a.document(doc).name, b.document(doc).name);
    CHECK_EQ(a.document(doc).blob, b.document(doc).blob);
    const storage::NodeTable& ta = a.table(doc);
    const storage::NodeTable& tb = b.table(doc);
    CHECK_EQ(ta.size(), tb.size());
    if (ta.size() != tb.size()) continue;
    for (Pre pre = 0; pre < ta.size(); ++pre) {
      CHECK(ta.kind(pre) == tb.kind(pre));
      CHECK_EQ(ta.name(pre), tb.name(pre));
      CHECK_EQ(ta.parent(pre), tb.parent(pre));
      CHECK_EQ(ta.subtree_size(pre), tb.subtree_size(pre));
      CHECK_EQ(ta.level(pre), tb.level(pre));
      CHECK_EQ(ta.attribute_count(pre), tb.attribute_count(pre));
      for (uint32_t i = 0; i < ta.attribute_count(pre); ++i) {
        CHECK_EQ(ta.attribute_name(pre, i), tb.attribute_name(pre, i));
        CHECK_EQ(ta.attribute_value(pre, i), tb.attribute_value(pre, i));
      }
      if (ta.kind(pre) == storage::NodeKind::kText) {
        CHECK_EQ(ta.text(pre), tb.text(pre));
      }
    }
    for (storage::NameId id = 0; id < a.names().size(); ++id) {
      CHECK(a.document(doc).element_index.Lookup(id) ==
            b.document(doc).element_index.Lookup(id));
    }
  }
}

/// A 3-shard store with hand-built, random, and XMark-standoff docs.
void BuildFixtureStore(storage::ShardedStore* store) {
  CHECK_OK(store->AddDocumentText("soup0.xml", RandomSoup(11)));
  CHECK_OK(store->AddDocumentText("soup1.xml", RandomSoup(22)));
  xmark::XmarkOptions options;
  options.scale = 0.002;
  auto so_doc = xmark::ToStandoff(xmark::GenerateXmark(options));
  CHECK_OK(so_doc);
  auto id = store->AddDocumentText("xmark.xml", so_doc->xml);
  CHECK_OK(id);
  CHECK_OK(store->SetBlob(*id, so_doc->blob));
  CHECK_OK(store->AddDocumentText("soup2.xml", RandomSoup(33)));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

static void TestRoundTrip() {
  storage::ShardedStore store(3);
  BuildFixtureStore(&store);
  const std::string path = TempPath("roundtrip");
  CHECK_OK(storage::SaveSnapshot(store, path));

  auto snapshot = storage::Snapshot::Open(path);
  CHECK_OK(snapshot);
  CHECK_EQ((*snapshot)->shard_count(), 3u);
  CheckStoresEqual(store.store(), (*snapshot)->store());
  for (uint32_t shard = 0; shard < 3; ++shard) {
    CHECK(store.shard_docs(shard) ==
          (*snapshot)->sharded_store().shard_docs(shard));
  }
  // One region index per document was embedded under the default config.
  CHECK_EQ((*snapshot)->region_index_count(), store.document_count());
  std::remove(path.c_str());
}

static void TestPreloadedIndexesAreBorrowed() {
  storage::ShardedStore store(1);
  BuildFixtureStore(&store);
  const std::string path = TempPath("borrowed");
  CHECK_OK(storage::SaveSnapshot(store, path));
  auto snapshot = storage::Snapshot::Open(path);
  CHECK_OK(snapshot);

  so::RegionIndexCache cache, second_cache;
  for (storage::DocId doc = 0; doc < store.document_count(); ++doc) {
    auto index = cache.Get((*snapshot)->store(), doc, so::StandoffConfig{});
    CHECK_OK(index);
    const so::RegionColumns cols = (*index)->columns();
    CHECK(cols.start_sorted);
    if (cols.size > 0) {
      // Version-2 files 64-byte-align every column segment, and the
      // mapping base is page-aligned, so borrowed columns must land on
      // cache-line boundaries — the SIMD kernels' aligned-start
      // guarantee for mmap-borrowed data.
      CHECK_EQ(reinterpret_cast<uintptr_t>(cols.start) % 64, 0u);
      CHECK_EQ(reinterpret_cast<uintptr_t>(cols.end) % 64, 0u);
      CHECK_EQ(reinterpret_cast<uintptr_t>(cols.id) % 64, 0u);
    }
    // Two independent caches return the SAME object: the index is
    // served from the document's preloaded (snapshot-owned) list, not
    // rebuilt per cache.
    auto again =
        second_cache.Get((*snapshot)->store(), doc, so::StandoffConfig{});
    CHECK_OK(again);
    CHECK(*index == *again);
    // A different config is NOT preloaded and falls back to a build.
    so::StandoffConfig other;
    other.type = "timecode";
    auto built = cache.Get((*snapshot)->store(), doc, other);
    CHECK_OK(built);
    CHECK(*built != *index);
    // Equivalent content to a fresh build from the (snapshot) table.
    auto rebuilt = so::RegionIndex::Build(
        (*snapshot)->store().table(doc),
        so::Resolve(so::StandoffConfig{}, (*snapshot)->store().names()));
    CHECK_OK(rebuilt);
    CHECK(test::Rows(**index) == test::Rows(*rebuilt));
    CHECK((*index)->annotated_ids() == rebuilt->annotated_ids());
  }
  std::remove(path.c_str());
}

static void TestQueryDifferentialAgainstSnapshot() {
  storage::ShardedStore store(3);
  BuildFixtureStore(&store);
  const std::string path = TempPath("differential");
  CHECK_OK(storage::SaveSnapshot(store, path));
  auto snapshot = storage::Snapshot::Open(path);
  CHECK_OK(snapshot);

  using xquery::ChainQuery;
  using xquery::ChainStep;
  const std::pair<so::StandoffOp, so::StandoffOp> kOpPairs[] = {
      {so::StandoffOp::kSelectNarrow, so::StandoffOp::kSelectNarrow},
      {so::StandoffOp::kSelectWide, so::StandoffOp::kSelectNarrow},
      {so::StandoffOp::kSelectNarrow, so::StandoffOp::kRejectWide},
      {so::StandoffOp::kRejectNarrow, so::StandoffOp::kSelectWide},
  };
  const so::PlanMode kModes[] = {so::PlanMode::kAuto, so::PlanMode::kTopDown,
                                 so::PlanMode::kBottomUpLast};
  const auto axis = [](so::StandoffOp op) {
    switch (op) {
      case so::StandoffOp::kSelectNarrow: return xquery::Axis::kSelectNarrow;
      case so::StandoffOp::kSelectWide: return xquery::Axis::kSelectWide;
      case so::StandoffOp::kRejectNarrow: return xquery::Axis::kRejectNarrow;
      case so::StandoffOp::kRejectWide: return xquery::Axis::kRejectWide;
    }
    return xquery::Axis::kSelectNarrow;
  };

  // Chain queries: every (doc, op pair, plan mode) cell must agree
  // between the in-memory and snapshot-backed store.
  for (storage::DocId doc : {storage::DocId{0}, storage::DocId{1},
                             storage::DocId{3}}) {
    for (const auto& [op1, op2] : kOpPairs) {
      for (so::PlanMode mode : kModes) {
        ChainQuery query;
        query.doc = doc;
        query.context_name = "scene";
        query.steps.push_back(ChainStep{axis(op1), false, "speech"});
        query.steps.push_back(ChainStep{axis(op2), false, "word"});

        xquery::Engine mem_engine(&store.store());
        xquery::Engine snap_engine(&(*snapshot)->store());
        mem_engine.mutable_options()->plan_mode = mode;
        snap_engine.mutable_options()->plan_mode = mode;
        auto mem = mem_engine.EvaluateChain(query);
        auto snap = snap_engine.EvaluateChain(query);
        CHECK_OK(mem);
        CHECK_OK(snap);
        if (!mem.ok() || !snap.ok()) continue;
        CHECK(mem->matches == snap->matches);
        CHECK(mem->context_ids == snap->context_ids);
      }
    }
  }

  // FLWOR path, all four StandoffModes, on a store whose document 0 is
  // the XMark standoff document (absolute paths bind to document 0).
  // Also exercises the DocumentStore overload of SaveSnapshot.
  storage::DocumentStore xmark_store;
  {
    xmark::XmarkOptions options;
    options.scale = 0.002;
    auto so_doc = xmark::ToStandoff(xmark::GenerateXmark(options));
    CHECK_OK(so_doc);
    CHECK_OK(xmark_store.AddDocumentText("xmark.xml", so_doc->xml));
  }
  const std::string xmark_path = TempPath("differential_xmark");
  CHECK_OK(storage::SaveSnapshot(xmark_store, xmark_path));
  auto xmark_snapshot = storage::Snapshot::Open(xmark_path);
  CHECK_OK(xmark_snapshot);
  const xquery::StandoffMode kStandoffModes[] = {
      xquery::StandoffMode::kUdfNoCandidates,
      xquery::StandoffMode::kUdfCandidates,
      xquery::StandoffMode::kBasicMergeJoin,
      xquery::StandoffMode::kLoopLifted,
  };
  for (const xmark::XmarkQuery& query : xmark::BenchmarkQueries()) {
    for (xquery::StandoffMode mode : kStandoffModes) {
      xquery::Engine mem_engine(&xmark_store);
      xquery::Engine snap_engine(&(*xmark_snapshot)->store());
      mem_engine.set_standoff_mode(mode);
      snap_engine.set_standoff_mode(mode);
      auto mem = mem_engine.Evaluate(query.standoff);
      auto snap = snap_engine.Evaluate(query.standoff);
      CHECK_OK(mem);
      CHECK_OK(snap);
      if (!mem.ok() || !snap.ok()) continue;
      CHECK_EQ(mem->items.size(), snap->items.size());
    }
  }
  std::remove(xmark_path.c_str());

  // The server's dispatch over the snapshot-backed ShardedStore: every
  // shard's documents on one engine.
  std::vector<ChainQuery> batch;
  for (storage::DocId doc = 0; doc < store.document_count(); ++doc) {
    ChainQuery query;
    query.doc = doc;
    query.context_name = "scene";
    query.steps.push_back(
        ChainStep{xquery::Axis::kSelectNarrow, false, "speech"});
    query.steps.push_back(
        ChainStep{xquery::Axis::kSelectNarrow, false, "word"});
    batch.push_back(query);
  }
  const storage::ShardedStore& snap_store = (*snapshot)->sharded_store();
  CHECK_EQ(snap_store.shard_count(), store.shard_count());
  xquery::Engine mem_engine(&store);
  xquery::Engine snap_engine(&snap_store);
  for (const ChainQuery& query : batch) {
    auto mem = mem_engine.EvaluateChain(query);
    auto snap = snap_engine.EvaluateChain(query);
    CHECK_OK(mem);
    CHECK_OK(snap);
    if (!mem.ok() || !snap.ok()) continue;
    CHECK(mem->matches == snap->matches);
    CHECK(mem->context_ids == snap->context_ids);
  }
  std::remove(path.c_str());
}

static void TestParallelSaveIdenticalToSerial() {
  storage::ShardedStore store(2);
  BuildFixtureStore(&store);
  const std::string serial_path = TempPath("save_serial");
  const std::string parallel_path = TempPath("save_parallel");
  CHECK_OK(storage::SaveSnapshot(store, serial_path));
  storage::SnapshotWriteOptions options;
  ThreadPool pool(3);
  options.pool = &pool;
  CHECK_OK(storage::SaveSnapshot(store, parallel_path, options));
  CHECK(ReadFile(serial_path) == ReadFile(parallel_path));
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

static void TestRejectsMalformedFiles() {
  storage::ShardedStore store(1);
  CHECK_OK(store.AddDocumentText("d.xml", RandomSoup(5)));
  const std::string path = TempPath("malformed");
  CHECK_OK(storage::SaveSnapshot(store, path));
  const std::string good = ReadFile(path);
  CHECK(good.size() > 256);

  // Missing file.
  CHECK(!storage::Snapshot::Open(path + ".does-not-exist").ok());

  // Truncations at several depths: header, segments, TOC, last byte.
  for (size_t keep : {size_t{0}, size_t{10}, size_t{63}, size_t{200},
                      good.size() / 2, good.size() - 1}) {
    WriteFile(path, good.substr(0, keep));
    auto truncated = storage::Snapshot::Open(path);
    CHECK(!truncated.ok());
  }

  // Bad magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    WriteFile(path, bad);
    auto r = storage::Snapshot::Open(path);
    CHECK(!r.ok());
    CHECK(r.status().ToString().find("magic") != std::string::npos);
  }

  // Unsupported version.
  {
    std::string bad = good;
    bad[8] = 99;  // version field follows the 8-byte magic
    WriteFile(path, bad);
    auto r = storage::Snapshot::Open(path);
    CHECK(!r.ok());
    CHECK(r.status().ToString().find("version") != std::string::npos);
  }

  // Version-1 files (8-byte segment alignment) predate the 64-byte
  // alignment guarantee and must be rejected up front, not resolved
  // into misaligned columns. The header is outside the checksummed
  // range, so patching the field alone exercises the version check.
  {
    std::string bad = good;
    bad[8] = 1;
    WriteFile(path, bad);
    auto r = storage::Snapshot::Open(path);
    CHECK(!r.ok());
    CHECK(r.status().ToString().find("version") != std::string::npos);
  }

  // Version-2 files persist 7 column segments per region index (the
  // per-id first-region columns version 3 dropped); their directory
  // does not parse as version 3, so they are rejected by version too.
  {
    std::string bad = good;
    bad[8] = 2;
    WriteFile(path, bad);
    auto r = storage::Snapshot::Open(path);
    CHECK(!r.ok());
    CHECK(r.status().ToString().find("version") != std::string::npos);
  }

  // Checksum mismatch: flip one payload byte.
  {
    std::string bad = good;
    bad[good.size() / 2] ^= 0x40;
    WriteFile(path, bad);
    auto r = storage::Snapshot::Open(path);
    CHECK(!r.ok());
    CHECK(r.status().ToString().find("checksum") != std::string::npos);
  }

  // ... and the same corrupt file passes the open when verification is
  // explicitly disabled OR fails structurally — never UB. (A flipped
  // byte in a column payload parses fine; the checksum is the defense.)
  {
    std::string bad = good;
    bad[good.size() - 1] ^= 0x01;
    WriteFile(path, bad);
    storage::SnapshotOpenOptions no_verify;
    no_verify.verify_checksum = false;
    auto r = storage::Snapshot::Open(path, no_verify);
    (void)r;  // either outcome is fine; must not crash
  }

  // Appended trailing garbage: header file_size no longer matches.
  {
    WriteFile(path, good + "garbage");
    auto r = storage::Snapshot::Open(path);
    CHECK(!r.ok());
  }

  // The pristine bytes still open.
  WriteFile(path, good);
  CHECK_OK(storage::Snapshot::Open(path));
  std::remove(path.c_str());
}

static void TestRoundTripThroughParallelIngest() {
  // Parallel-ingested store -> snapshot -> open: equal to the serially
  // loaded store.
  std::vector<std::string> xmls;
  for (uint64_t seed = 0; seed < 6; ++seed) xmls.push_back(RandomSoup(seed));

  storage::ShardedStore serial(2);
  for (size_t i = 0; i < xmls.size(); ++i) {
    CHECK_OK(serial.AddDocumentText("d" + std::to_string(i), xmls[i]));
  }

  storage::ShardedStore parallel(2);
  std::vector<storage::IngestInput> inputs;
  for (size_t i = 0; i < xmls.size(); ++i) {
    inputs.push_back({"d" + std::to_string(i), xmls[i]});
  }
  ThreadPool pool(3);
  auto ids = storage::AddDocumentsParallel(&parallel, inputs, &pool);
  CHECK_OK(ids);

  const std::string path = TempPath("ingest");
  CHECK_OK(storage::SaveSnapshot(parallel, path));
  auto snapshot = storage::Snapshot::Open(path);
  CHECK_OK(snapshot);
  CheckStoresEqual(serial.store(), (*snapshot)->store());
  std::remove(path.c_str());
}

int main() {
  RUN_TEST(TestRoundTrip);
  RUN_TEST(TestPreloadedIndexesAreBorrowed);
  RUN_TEST(TestQueryDifferentialAgainstSnapshot);
  RUN_TEST(TestParallelSaveIdenticalToSerial);
  RUN_TEST(TestRejectsMalformedFiles);
  RUN_TEST(TestRoundTripThroughParallelIngest);
  TEST_MAIN();
}
