// Concurrent writer / reader / compactor stress over MutableStore,
// exercising the DESIGN.md §15 contract under TSan: writers publish
// runs copy-on-write, readers pin frozen views and must see internally
// consistent state, and compaction (freeze → rewrite → adopt) runs
// concurrently with both. Writers own DISJOINT element-id ranges, so
// the final store state is exactly each thread's op log replayed in
// program order — compaction is observably transparent — and the test
// closes with a full differential against that oracle.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "standoff/region_index.h"
#include "storage/delta.h"
#include "storage/sharded_store.h"
#include "storage/snapshot.h"
#include "tests/harness.h"
#include "tests/oracle.h"
#include "xquery/engine.h"

using namespace standoff;
using storage::Pre;

namespace {

constexpr int kWriters = 3;
constexpr int kIdsPerWriter = 8;
constexpr int kOpsPerWriter = 120;
constexpr int kCompactions = 3;

std::string TempPath(const std::string& name) {
  return "/tmp/standoff_test_" + name + "_" + std::to_string(::getpid()) +
         ".sosnap";
}

/// One doc: the first id of every writer's range starts with a base
/// region (tombstone targets); the rest are bare.
std::string CorpusXml() {
  std::string xml = "<doc>";
  for (int w = 0; w < kWriters; ++w) {
    for (int k = 0; k < kIdsPerWriter; ++k) {
      if (k == 0) {
        const int64_t start = w * 1000;
        xml += "<w start=\"" + std::to_string(start) + "\" end=\"" +
               std::to_string(start + 100) + "\"/>";
      } else {
        xml += "<w/>";
      }
    }
  }
  xml += "</doc>";
  return xml;
}

// Pre 0 is the document node, pre 1 is <doc>; the k-th <w> follows.
Pre IdOf(int writer, int k) {
  return static_cast<Pre>(2 + writer * kIdsPerWriter + k);
}

struct Op {
  bool is_insert = false;
  Pre id = 0;
  int64_t start = 0, end = 0;
};

std::vector<Op> WriterScript(int writer) {
  Rng rng(0xC0FFEE + writer);
  std::vector<Op> ops;
  for (int i = 0; i < kOpsPerWriter; ++i) {
    Op op;
    op.id = IdOf(writer, static_cast<int>(rng.UniformRange(0, kIdsPerWriter - 1)));
    if (rng.UniformRange(0, 3) == 0) {
      op.is_insert = false;
    } else {
      op.is_insert = true;
      op.start = rng.UniformRange(0, 5000);
      op.end = op.start + rng.UniformRange(0, 200);
    }
    ops.push_back(op);
  }
  return ops;
}

/// The oracle: per-id replay. A delete clears everything the id had so
/// far (base rows and pending inserts alike — compaction-transparent).
std::vector<so::RegionEntry> OracleEntries() {
  std::map<Pre, std::vector<so::RegionEntry>> per_id;
  for (int w = 0; w < kWriters; ++w) {
    per_id[IdOf(w, 0)].push_back(
        {w * 1000, w * 1000 + 100, IdOf(w, 0)});
  }
  for (int w = 0; w < kWriters; ++w) {
    for (const Op& op : WriterScript(w)) {
      if (op.is_insert) {
        per_id[op.id].push_back({op.start, op.end, op.id});
      } else {
        per_id[op.id].clear();
      }
    }
  }
  std::vector<so::RegionEntry> out;
  for (const auto& [id, regions] : per_id) {
    out.insert(out.end(), regions.begin(), regions.end());
  }
  return out;
}

bool EntriesEqual(const std::vector<so::RegionEntry>& a,
                  const std::vector<so::RegionEntry>& b) {
  return a == b;
}

}  // namespace

static void TestConcurrentWritersReadersCompactor() {
  auto base = std::make_shared<storage::ShardedStore>(1);
  CHECK_OK(base->AddDocumentText("d0", CorpusXml()));
  storage::MutableStore store(base);
  const so::StandoffConfig config;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, &failures, w] {
      const std::string fp = so::ConfigFingerprint(so::StandoffConfig{});
      for (const Op& op : WriterScript(w)) {
        const auto status =
            op.is_insert
                ? store.InsertRegion(0, fp, op.start, op.end, op.id).status()
                : store.DeleteRegions(0, fp, op.id).status();
        if (!status.ok()) failures.fetch_add(1);
      }
    });
  }

  // Readers: pin a view, check sequence monotonicity across pins, and
  // check that two independent caches over the SAME pinned view build
  // byte-identical merged indexes (frozen-view determinism).
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&store, &done, &failures, &config] {
      uint64_t last_seq = 0;
      // At least a few iterations even if the writers win every race.
      for (int iter = 0;
           iter < 10 || !done.load(std::memory_order_acquire); ++iter) {
        auto view = store.View();
        const uint64_t seq = view->delta_sequence();
        if (seq < last_seq) failures.fetch_add(1);
        last_seq = seq;
        so::RegionIndexCache cache_a, cache_b;
        auto ia = cache_a.Get(*view, 0, config);
        auto ib = cache_b.Get(*view, 0, config);
        if (!ia.ok() || !ib.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (!EntriesEqual(test::Rows(**ia), test::Rows(**ib))) {
          failures.fetch_add(1);
        }
        // The merged index must be canonically sorted.
        const std::vector<so::RegionEntry> entries = test::Rows(**ia);
        for (size_t i = 1; i < entries.size(); ++i) {
          const auto& p = entries[i - 1];
          const auto& c = entries[i];
          const bool ordered =
              p.start != c.start ? p.start < c.start
              : (p.end != c.end ? p.end < c.end : p.id <= c.id);
          if (!ordered) failures.fetch_add(1);
        }
        // And the engine must run over the pinned view without error.
        xquery::Engine engine(view.get());
        xquery::ChainQuery query;
        query.doc = 0;
        query.context_any = true;
        query.steps.push_back({xquery::Axis::kSelectNarrow, false, "w"});
        if (!engine.EvaluateChain(query).ok()) failures.fetch_add(1);
      }
    });
  }

  // Always runs all its rounds — the final round necessarily overlaps
  // settled state, the early ones race the writers.
  std::thread compactor([&store, &failures] {
    ThreadPool pool(2);
    for (int c = 0; c < kCompactions; ++c) {
      const std::string path =
          TempPath("delta_concurrent_gen" + std::to_string(c));
      uint64_t seq = 0;
      if (!store.CompactToSnapshot(path, &pool, &seq).ok()) {
        failures.fetch_add(1);
        continue;
      }
      auto snapshot = storage::Snapshot::Open(path);
      if (!snapshot.ok()) {
        failures.fetch_add(1);
        continue;
      }
      store.AdoptCompacted(seq, (*snapshot)->shared_store());
      snapshot->reset();
      std::remove(path.c_str());
    }
  });

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  compactor.join();
  CHECK_EQ(failures.load(), 0);

  // Final differential: the settled store equals the per-thread oracle.
  auto view = store.View();
  so::RegionIndexCache cache;
  auto merged = cache.Get(*view, 0, config);
  CHECK_OK(merged);
  if (merged.ok()) {
    const so::RegionIndex oracle = so::RegionIndex::FromEntries(OracleEntries());
    if (!EntriesEqual(test::Rows(**merged), test::Rows(oracle))) {
      std::fprintf(stderr, "  final state: %zu entries vs oracle %zu\n",
                   test::Rows(**merged).size(), test::Rows(oracle).size());
      CHECK(false);
    }
  }
  const storage::DeltaStats stats = store.stats();
  CHECK(stats.inserts_total > 0);
  CHECK(stats.deletes_total > 0);
  CHECK_EQ(stats.compactions, uint64_t{kCompactions});
}

// A late adopt: writes that land between freeze and adopt survive even
// when the adopt happens long after the compaction finished.
static void TestAdoptAfterConcurrentWrites() {
  auto base = std::make_shared<storage::ShardedStore>(1);
  CHECK_OK(base->AddDocumentText("d0", CorpusXml()));
  storage::MutableStore store(base);
  const std::string fp = so::ConfigFingerprint(so::StandoffConfig{});

  CHECK_OK(store.InsertRegion(0, fp, 10, 20, IdOf(0, 1)));
  const std::string path = TempPath("delta_concurrent_lateadopt");
  ThreadPool pool(2);
  uint64_t seq = 0;
  CHECK_OK(store.CompactToSnapshot(path, &pool, &seq));

  // A racing writer fires between freeze and adopt. (No CHECKs inside
  // the thread — the harness failure counter is not thread-safe.)
  std::atomic<int> racer_failures{0};
  std::thread racer([&store, &fp, &racer_failures] {
    for (int i = 0; i < 50; ++i) {
      if (!store.InsertRegion(0, fp, 100 + i, 200 + i, IdOf(1, 1)).ok()) {
        racer_failures.fetch_add(1);
      }
    }
  });
  auto snapshot = storage::Snapshot::Open(path);
  CHECK_OK(snapshot);
  if (snapshot.ok()) {
    store.AdoptCompacted(seq, (*snapshot)->shared_store());
  }
  racer.join();
  CHECK_EQ(racer_failures.load(), 0);

  auto view = store.View();
  so::RegionIndexCache cache;
  auto merged = cache.Get(*view, 0, so::StandoffConfig{});
  CHECK_OK(merged);
  if (merged.ok()) {
    // All 50 racer rows plus the folded pre-freeze row are present.
    size_t racer_rows = 0, folded_rows = 0;
    for (const auto& e : test::Rows(**merged)) {
      if (e.id == IdOf(1, 1)) ++racer_rows;
      if (e.id == IdOf(0, 1)) ++folded_rows;
    }
    CHECK_EQ(racer_rows, size_t{50});
    CHECK_EQ(folded_rows, size_t{1});
  }
  std::remove(path.c_str());
}

int main() {
  RUN_TEST(TestConcurrentWritersReadersCompactor);
  RUN_TEST(TestAdoptAfterConcurrentWrites);
  TEST_MAIN();
}
