// Substrate throughput: XML parsing, shredding, the StandOff document
// transformation, region-index construction — and the cold-start path
// those costs motivate: binary snapshot save, zero-copy mmap open
// (BM_SnapshotOpen vs BM_ColdStartReparse is the headline open-vs-
// reparse ratio, also emitted as the open_vs_reparse_x counter), and
// parallel multi-document ingestion (BM_ParallelIngest/T/1; the CI
// bench-scaling job gates its 4-thread wall-clock speedup).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/timer.h"
#include "standoff/region_index.h"
#include "storage/document_store.h"
#include "storage/ingest.h"
#include "storage/snapshot.h"
#include "xmark/generator.h"
#include "xmark/standoff_transform.h"

namespace {

using namespace standoff;

const std::string& XmarkText() {
  static const std::string* text = [] {
    xmark::XmarkOptions options;
    options.scale = 0.02;
    return new std::string(xmark::GenerateXmark(options));
  }();
  return *text;
}

const xmark::StandoffDocument& StandoffDoc() {
  static const xmark::StandoffDocument* doc = [] {
    auto d = xmark::ToStandoff(XmarkText());
    if (!d.ok()) std::abort();
    return new xmark::StandoffDocument(d.MoveValueUnsafe());
  }();
  return *doc;
}

void BM_Generate(benchmark::State& state) {
  xmark::XmarkOptions options;
  options.scale = 0.02;
  size_t bytes = 0;
  for (auto _ : state) {
    std::string doc = xmark::GenerateXmark(options);
    bytes = doc.size();
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
}

void BM_ParseAndShred(benchmark::State& state) {
  const std::string& text = XmarkText();
  for (auto _ : state) {
    storage::DocumentStore store;
    auto id = store.AddDocumentText("x.xml", text);
    if (!id.ok()) state.SkipWithError(id.status().ToString().c_str());
    benchmark::DoNotOptimize(store);
  }
  state.SetBytesProcessed(static_cast<int64_t>(text.size()) *
                          state.iterations());
}

void BM_StandoffTransform(benchmark::State& state) {
  const std::string& text = XmarkText();
  for (auto _ : state) {
    auto so_doc = xmark::ToStandoff(text);
    if (!so_doc.ok()) state.SkipWithError(so_doc.status().ToString().c_str());
    benchmark::DoNotOptimize(so_doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(text.size()) *
                          state.iterations());
}

void BM_RegionIndexBuild(benchmark::State& state) {
  storage::DocumentStore store;
  auto id = store.AddDocumentText("so.xml", StandoffDoc().xml);
  if (!id.ok()) std::abort();
  const so::ResolvedConfig config =
      so::Resolve(so::StandoffConfig{}, store.names());
  size_t entries = 0;
  for (auto _ : state) {
    auto index = so::RegionIndex::Build(store.table(0), config);
    if (!index.ok()) state.SkipWithError(index.status().ToString().c_str());
    entries = index->size();
    benchmark::DoNotOptimize(index);
  }
  state.counters["entries"] = static_cast<double>(entries);
  state.counters["entries_per_s"] = benchmark::Counter(
      static_cast<double>(entries) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_ElementIndexBuild(benchmark::State& state) {
  storage::DocumentStore store;
  auto id = store.AddDocumentText("so.xml", StandoffDoc().xml);
  if (!id.ok()) std::abort();
  for (auto _ : state) {
    storage::ElementIndex index;
    index.Build(store.table(0), store.names().size());
    benchmark::DoNotOptimize(index);
  }
}

// ---------------------------------------------------------------------------
// Cold start: snapshot save / open vs full reparse of the same corpus.
// ---------------------------------------------------------------------------

const std::string& SnapshotPath() {
  static const std::string* path = [] {
    auto store = std::make_unique<storage::DocumentStore>();
    if (!store->AddDocumentText("so.xml", StandoffDoc().xml).ok()) {
      std::abort();
    }
    auto* p = new std::string("/tmp/standoff_bench_loading.sosnap");
    if (!storage::SaveSnapshot(*store, *p).ok()) std::abort();
    return p;
  }();
  return *path;
}

/// One full cold start from raw XML: parse + shred + element index
/// (AddDocumentText) + region index — everything BM_SnapshotOpen
/// replaces. Returns the region-index size as an optimization barrier.
size_t ColdStartOnce(const std::string& xml) {
  storage::DocumentStore store;
  auto id = store.AddDocumentText("so.xml", xml);
  if (!id.ok()) std::abort();
  auto index = so::RegionIndex::Build(
      store.table(0), so::Resolve(so::StandoffConfig{}, store.names()));
  if (!index.ok()) std::abort();
  return index->size();
}

/// Median-of-5 wall seconds of a cold reparse start, measured once and
/// reused by BM_SnapshotOpen's open_vs_reparse_x counter.
double ReparseSeconds() {
  static const double seconds = [] {
    std::vector<double> runs;
    for (int i = 0; i < 5; ++i) {
      Timer timer;
      benchmark::DoNotOptimize(ColdStartOnce(StandoffDoc().xml));
      runs.push_back(timer.ElapsedSeconds());
    }
    std::sort(runs.begin(), runs.end());
    return runs[runs.size() / 2];
  }();
  return seconds;
}

void BM_ColdStartReparse(benchmark::State& state) {
  const std::string& xml = StandoffDoc().xml;
  SnapshotPath();  // same setup costs outside the loop as SnapshotOpen
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColdStartOnce(xml));
  }
  state.SetBytesProcessed(static_cast<int64_t>(xml.size()) *
                          state.iterations());
}

void SnapshotOpenBench(benchmark::State& state, bool verify) {
  const std::string& path = SnapshotPath();
  storage::SnapshotOpenOptions options;
  options.verify_checksum = verify;
  double open_seconds_total = 0;
  size_t file_size = 0;
  for (auto _ : state) {
    Timer timer;
    auto snapshot = storage::Snapshot::Open(path, options);
    if (!snapshot.ok()) {
      state.SkipWithError(snapshot.status().ToString().c_str());
      return;
    }
    open_seconds_total += timer.ElapsedSeconds();
    file_size = (*snapshot)->file_size();
    benchmark::DoNotOptimize(snapshot);
  }
  state.SetBytesProcessed(static_cast<int64_t>(file_size) *
                          state.iterations());
  state.counters["file_bytes"] = static_cast<double>(file_size);
  if (open_seconds_total > 0) {
    state.counters["open_vs_reparse_x"] =
        ReparseSeconds() /
        (open_seconds_total / static_cast<double>(state.iterations()));
  }
}

void BM_SnapshotOpen(benchmark::State& state) {
  SnapshotOpenBench(state, /*verify=*/true);
}

void BM_SnapshotOpenNoVerify(benchmark::State& state) {
  SnapshotOpenBench(state, /*verify=*/false);
}

void BM_SnapshotSave(benchmark::State& state) {
  storage::DocumentStore store;
  if (!store.AddDocumentText("so.xml", StandoffDoc().xml).ok()) std::abort();
  const std::string path = "/tmp/standoff_bench_loading_save.sosnap";
  for (auto _ : state) {
    auto st = storage::SaveSnapshot(store, path);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Parallel ingestion. Args: (total threads incl. caller, 1). Wall-clock
// scaling appears on multi-core hosts. cpu_time is process CPU summed
// over every thread, so it does not drop with threads; its growth is
// the coordination overhead of the pool.
// ---------------------------------------------------------------------------

const std::vector<std::string>& IngestCorpus() {
  static const std::vector<std::string>* corpus = [] {
    auto c = new std::vector<std::string>();
    xmark::XmarkOptions options;
    options.scale = 0.004;
    for (int i = 0; i < 8; ++i) {
      options.seed = 1000 + i;
      auto so_doc = xmark::ToStandoff(xmark::GenerateXmark(options));
      if (!so_doc.ok()) std::abort();
      c->push_back(std::move(so_doc->xml));
    }
    return c;
  }();
  return *corpus;
}

void BM_ParallelIngest(benchmark::State& state) {
  const std::vector<std::string>& corpus = IngestCorpus();
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  ThreadPool pool(threads > 1 ? threads - 1 : 0);
  std::vector<storage::IngestInput> inputs;
  size_t bytes = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    inputs.push_back({"doc" + std::to_string(i), corpus[i]});
    bytes += corpus[i].size();
  }
  for (auto _ : state) {
    storage::ShardedStore store(4);
    auto ids = storage::AddDocumentsParallel(
        &store, inputs, threads > 1 ? &pool : nullptr);
    if (!ids.ok()) state.SkipWithError(ids.status().ToString().c_str());
    benchmark::DoNotOptimize(store);
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
  state.counters["docs"] = static_cast<double>(corpus.size());
}

/// Snapshot save from raw XML with parallel index builds — the "build a
/// snapshot from a corpus the store did not generate" path end to end.
void BM_ParallelSnapshotBuild(benchmark::State& state) {
  const std::vector<std::string>& corpus = IngestCorpus();
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  ThreadPool pool(threads > 1 ? threads - 1 : 0);
  ThreadPool* used = threads > 1 ? &pool : nullptr;
  std::vector<storage::IngestInput> inputs;
  for (size_t i = 0; i < corpus.size(); ++i) {
    inputs.push_back({"doc" + std::to_string(i), corpus[i]});
  }
  const std::string path = "/tmp/standoff_bench_loading_build.sosnap";
  for (auto _ : state) {
    storage::ShardedStore store(4);
    auto ids = storage::AddDocumentsParallel(&store, inputs, used);
    if (!ids.ok()) state.SkipWithError(ids.status().ToString().c_str());
    storage::SnapshotWriteOptions options;
    options.pool = used;
    auto st = storage::SaveSnapshot(store, path, options);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  std::remove(path.c_str());
}

}  // namespace

BENCHMARK(BM_Generate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParseAndShred)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StandoffTransform)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RegionIndexBuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ElementIndexBuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdStartReparse)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotOpen)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotOpenNoVerify)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMillisecond);
// Args are (threads, 1) so bench/check_scaling.py gates
// "BM_ParallelIngest/4/1" against "/1/1": real_time = wall (the
// multi-core speedup the CI job asserts), cpu_time = process CPU over
// every thread (minibench reads CLOCK_PROCESS_CPUTIME_ID), so its ratio
// is the total-CPU growth that parallelism costs.
BENCHMARK(BM_ParallelIngest)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelSnapshotBuild)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
