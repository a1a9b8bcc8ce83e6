// The traced per-layer passes. Each pass replays the run's seeded
// inputs through one module's public functions, with a span around
// every call, and reduces the spans to that layer's metrics.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>

#include "bench.h"
#include "common/thread_pool.h"
#include "server/query_text.h"
#include "standoff/region_index.h"
#include "storage/delta.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "xmark/generator.h"
#include "xmark/standoff_transform.h"
#include "xquery/engine.h"

namespace perfbench {

namespace fs = std::filesystem;
using standoff::Status;
using standoff::StatusOr;
namespace storage = standoff::storage;
namespace so = standoff::so;
namespace xquery = standoff::xquery;

Status GenerateCorpus(
    const standoff::server::BootstrapOptions& options, TraceBuffer* trace,
    uint64_t request,
    const std::function<Status(std::string, std::string, std::string)>& fn) {
  for (uint32_t d = 0; d < options.documents; ++d) {
    standoff::xmark::XmarkOptions xmark_options;
    xmark_options.scale = options.scale;
    xmark_options.seed = options.seed + d;
    std::string nested;
    {
      ScopedSpan span(trace, "xmark.generate", request);
      nested = standoff::xmark::GenerateXmark(xmark_options);
    }
    if (d % 2 == 0) {
      StatusOr<standoff::xmark::StandoffDocument> doc =
          Status::Internal("unset");
      {
        ScopedSpan span(trace, "xmark.to_standoff", request);
        doc = standoff::xmark::ToStandoff(nested);
      }
      if (!doc.ok()) return doc.status();
      STANDOFF_RETURN_IF_ERROR(fn("xmark_so_" + std::to_string(d),
                                  std::move(doc->xml), std::move(doc->blob)));
    } else {
      STANDOFF_RETURN_IF_ERROR(
          fn("xmark_nested_" + std::to_string(d), std::move(nested), ""));
    }
  }
  return Status::OK();
}

namespace {

/// Number of calls the repeated passes make: enough for a stable
/// median, few enough that a traced run stays well inside its budget.
struct PassSizes {
  int corpus_reps;
  size_t stream_reads;
  int rebuild_shapes;
  int micro_reps;
  size_t wal_appends;
  int compactions;
};

PassSizes SizesFor(const WorkloadSpec& spec) {
  if (spec.tiny) return {1, 100, 4, 3, 50, 1};
  return {spec.scan ? 2 : 3, 2000, 16, 25, 1000, 3};
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Per-request sums of the named spans, in request order.
std::vector<double> SumsByRequest(const TraceBuffer& buffer,
                                  std::initializer_list<const char*> names) {
  std::map<uint64_t, double> sums;
  for (const Span& span : buffer.spans()) {
    for (const char* name : names) {
      if (std::string(name) == span.name) sums[span.request] += span.micros();
    }
  }
  std::vector<double> out;
  for (const auto& [request, us] : sums) out.push_back(us);
  return out;
}

/// xmark + storage: rebuilds the corpus through the same public calls
/// BuildXmarkSnapshot makes, saves and reopens it, and requires the
/// rebuilt file to be byte-identical to the served snapshot.
Status CorpusPass(const LayerInputs& in, const PassSizes& sizes,
                  Trace* trace, Metrics* out) {
  TraceBuffer* buffer = trace->NewBuffer();
  const std::string served = ReadFile(in.snapshot_path);
  std::vector<double> generate_s, ingest_s, save_s, open_ms;
  for (int rep = 0; rep < sizes.corpus_reps; ++rep) {
    const uint64_t request = static_cast<uint64_t>(rep) + 1;
    const std::string path = in.work_dir + "/layers-corpus.sosnap";
    storage::ShardedStore store(in.corpus.shard_count);
    Status st = GenerateCorpus(
        in.corpus, buffer, request,
        [&](std::string name, std::string xml, std::string blob) -> Status {
          ScopedSpan span(buffer, "storage.ingest", request);
          auto id = store.AddDocumentText(std::move(name), xml);
          if (!id.ok()) return id.status();
          if (!blob.empty()) return store.SetBlob(*id, std::move(blob));
          return Status::OK();
        });
    if (!st.ok()) return st;
    {
      ScopedSpan span(buffer, "storage.snapshot_save", request);
      st = storage::SaveSnapshot(store, path);
    }
    if (!st.ok()) return st;
    {
      ScopedSpan span(buffer, "storage.snapshot_open", request);
      auto opened = storage::Snapshot::Open(path);
      if (!opened.ok()) return opened.status();
    }
    if (rep == 0 && ReadFile(path) != served) {
      return Status::Internal(
          "traced corpus rebuild differs from BuildXmarkSnapshot output");
    }
    fs::remove(path);
  }
  for (double us :
       SumsByRequest(*buffer, {"xmark.generate", "xmark.to_standoff"})) {
    generate_s.push_back(us / 1e6);
  }
  for (double us : SumsByRequest(*buffer, {"storage.ingest"})) {
    ingest_s.push_back(us / 1e6);
  }
  for (double us : SumsByRequest(*buffer, {"storage.snapshot_save"})) {
    save_s.push_back(us / 1e6);
  }
  for (double us : SumsByRequest(*buffer, {"storage.snapshot_open"})) {
    open_ms.push_back(us / 1e3);
  }
  out->Add("xmark.generate_s", Median(generate_s), "s");
  out->Add("storage.ingest_s", Median(ingest_s), "s");
  out->Add("storage.snapshot_save_s", Median(save_s), "s");
  out->Add("storage.snapshot_open_ms", Median(open_ms), "ms");
  return Status::OK();
}

/// The first `count` read shapes connection 0's stream issues.
std::vector<uint32_t> StreamReads(const LayerInputs& in, size_t count) {
  WorkloadSpec reads_only = *in.spec;
  reads_only.write_every = 0;
  OpStream stream(reads_only, *in.shapes, *in.write_targets, in.extent,
                  in.seed * 1009 + 1);
  std::vector<uint32_t> reads;
  while (reads.size() < count) reads.push_back(stream.Next().shape);
  return reads;
}

/// A MutableStore over `base` with the WAL attached, fed the seeded
/// write stream until its live footprint reaches `target`; every call
/// is spanned (storage.delta_insert / storage.delta_delete).
struct WriteState {
  std::unique_ptr<storage::Wal> wal;
  std::unique_ptr<storage::MutableStore> store;
};

Status BuildWriteState(const LayerInputs& in,
                       std::shared_ptr<const storage::ShardedStore> base,
                       uint64_t target, TraceBuffer* buffer,
                       WriteState* state) {
  storage::WalOptions options;
  options.dir = in.work_dir + "/wal-layers";
  options.sync = storage::WalSyncPolicy::kEveryNMs;
  options.sync_interval_ms = in.spec->wal_sync_interval_ms;
  fs::remove_all(options.dir);
  auto wal = storage::Wal::Open(options, storage::WalRecoveryResult{});
  if (!wal.ok()) return wal.status();
  state->wal = wal.MoveValueUnsafe();
  state->store = std::make_unique<storage::MutableStore>(std::move(base));
  state->store->AttachWal(state->wal.get());
  const std::string fingerprint = so::ConfigFingerprint(so::StandoffConfig{});
  OpStream stream(*in.spec, *in.shapes, *in.write_targets, in.extent,
                  in.seed * 7919 + 1);
  // Grow to the target footprint, with at least 20 writes so the
  // insert median has samples.
  for (int writes = 0;; ++writes) {
    const storage::DeltaStats stats = state->store->stats();
    if (writes >= 20 && stats.live_insert_rows + stats.live_tombstones >= target) {
      break;
    }
    if (writes > 100000) return Status::Internal("delta never reached target");
    const WriteOp write = stream.NextWrite();
    StatusOr<uint64_t> seq = uint64_t{0};
    if (write.insert) {
      ScopedSpan span(buffer, "storage.delta_insert");
      seq = state->store->InsertRegion(0, fingerprint, write.start, write.end,
                                       write.id);
    } else {
      ScopedSpan span(buffer, "storage.delta_delete");
      seq = state->store->DeleteRegions(0, fingerprint, write.id);
    }
    if (!seq.ok()) return seq.status();
  }
  return Status::OK();
}

}  // namespace

Status RunLayerPasses(const LayerInputs& in, Trace* trace, Metrics* out) {
  const PassSizes sizes = SizesFor(*in.spec);
  STANDOFF_RETURN_IF_ERROR(CorpusPass(in, sizes, trace, out));
  TraceBuffer* buffer = trace->NewBuffer();

  auto opened = storage::Snapshot::Open(in.snapshot_path);
  if (!opened.ok()) return opened.status();
  const std::shared_ptr<const storage::ShardedStore> base =
      (*opened)->shared_store();
  opened->reset();
  const std::vector<uint32_t> reads = StreamReads(in, sizes.stream_reads);

  // server.query_text: the stream's texts through the wire parser.
  for (uint32_t shape : reads) {
    ScopedSpan span(buffer, "query_text.parse");
    auto parsed = standoff::server::ParseQueryText((*in.shapes)[shape].text);
    if (!parsed.ok()) return parsed.status();
  }
  out->Add("query_text.parse_us_p50", Median(trace->Micros("query_text.parse")),
           "us");

  // storage.delta + wal: the write stream into a WAL-backed store, grown
  // to the live delta size the workload showed (the recovery phase's N
  // writes for read-only windows).
  const double sampled = Median(in.live_delta_samples);
  const uint64_t target =
      sampled > 0 ? static_cast<uint64_t>(sampled) : in.recovery_writes / 2;
  WriteState writes;
  STANDOFF_RETURN_IF_ERROR(BuildWriteState(in, base, target, buffer, &writes));
  out->Add("storage.delta_insert_us_p50",
           Median(trace->Micros("storage.delta_insert")), "us");
  const std::shared_ptr<const storage::DeltaStoreView> delta_view =
      writes.store->View();
  // The read view: the base for read-only windows, base ⊎ delta when
  // the window writes.
  const storage::StoreView& read_view =
      in.spec->write_every > 0
          ? static_cast<const storage::StoreView&>(*delta_view)
          : *base;

  // xquery: warm Engine evaluation of the stream, as the server's
  // per-connection BatchEngine dispatches it.
  {
    xquery::BatchEngine engine(&read_view, xquery::EngineOptions{});
    double joins = 0, context_rows = 0, matches = 0, chains = 0;
    for (int pass = 0; pass < 2; ++pass) {
      buffer->set_enabled(pass == 1);
      for (uint32_t index : reads) {
        const Shape& shape = (*in.shapes)[index];
        auto parsed = standoff::server::ParseQueryText(shape.text);
        if (!parsed.ok()) return parsed.status();
        if (shape.flwor) {
          ScopedSpan span(buffer, "xquery.evaluate");
          auto result = engine.shard_engine(0)->Evaluate(parsed->flwor);
          if (!result.ok()) return result.status();
          continue;
        }
        xquery::Engine* shard = engine.shard_engine(
            read_view.shard_of(parsed->chain.doc));
        StatusOr<xquery::ChainResult> result = Status::Internal("unset");
        {
          ScopedSpan span(buffer, "xquery.evaluate_chain");
          result = shard->EvaluateChain(parsed->chain);
        }
        if (!result.ok()) return result.status();
        if (pass == 1) {
          joins += static_cast<double>(result->stats.joins_run);
          context_rows += static_cast<double>(result->stats.context_rows_total);
          matches += static_cast<double>(result->matches.size());
          chains += 1;
        }
      }
    }
    buffer->set_enabled(true);
    out->Add("xquery.chain_eval_us_p50",
             Median(trace->Micros("xquery.evaluate_chain")), "us");
    out->Add("xquery.flwor_eval_us_p50",
             Median(trace->Micros("xquery.evaluate")), "us");
    out->Add("standoff.joins_per_query", chains > 0 ? joins / chains : 0,
             "count");
    out->Add("standoff.rows_examined_per_row",
             matches > 0 ? context_rows / matches : 0, "ratio");
  }

  // xquery: what a fresh read pays after a write — a new BatchEngine
  // over base ⊎ delta plus the first query of a shape.
  {
    std::vector<uint32_t> distinct;
    for (uint32_t shape : reads) {
      if (std::find(distinct.begin(), distinct.end(), shape) == distinct.end()) {
        distinct.push_back(shape);
      }
      if (distinct.size() >= static_cast<size_t>(sizes.rebuild_shapes)) break;
    }
    for (int rep = 0; rep < 3; ++rep) {
      for (uint32_t index : distinct) {
        const Shape& shape = (*in.shapes)[index];
        auto parsed = standoff::server::ParseQueryText(shape.text);
        if (!parsed.ok()) return parsed.status();
        ScopedSpan span(buffer, "xquery.engine_rebuild");
        xquery::BatchEngine engine(delta_view.get(), xquery::EngineOptions{});
        if (shape.flwor) {
          auto result = engine.shard_engine(0)->Evaluate(parsed->flwor);
          if (!result.ok()) return result.status();
        } else {
          auto result = engine.shard_engine(delta_view->shard_of(parsed->chain.doc))
                            ->EvaluateChain(parsed->chain);
          if (!result.ok()) return result.status();
        }
      }
    }
    out->Add("xquery.engine_rebuild_us_p50",
             Median(trace->Micros("xquery.engine_rebuild")), "us");
  }

  // standoff: a cold RegionIndexCache over the served snapshot, and the
  // base ⊎ delta merge at the sampled live size.
  {
    const so::StandoffConfig config;
    for (int rep = 0; rep < sizes.micro_reps; ++rep) {
      so::RegionIndexCache cache;
      ScopedSpan span(buffer, "standoff.index_get");
      auto index = cache.Get(*base, 0, config);
      if (!index.ok()) return index.status();
    }
    out->Add("standoff.index_get_us", Median(trace->Micros("standoff.index_get")),
             "us");
    so::RegionIndexCache cache;
    auto base_index = cache.Get(*base, 0, config);
    if (!base_index.ok()) return base_index.status();
    const auto run = delta_view->delta_run(0, so::ConfigFingerprint(config));
    if (run == nullptr) return Status::Internal("write pass left no delta");
    for (int rep = 0; rep < sizes.micro_reps; ++rep) {
      ScopedSpan span(buffer, "standoff.merge_base_delta");
      const so::RegionIndex merged = so::MergeBaseDelta(**base_index, *run);
      if (merged.size() == 0) return Status::Internal("empty merge");
    }
    out->Add("standoff.merge_delta_us",
             Median(trace->Micros("standoff.merge_base_delta")), "us");
  }

  // storage.wal: raw appends of the write stream, then replay of the
  // recovery phase's log.
  {
    storage::WalOptions options;
    options.dir = in.work_dir + "/wal-append";
    options.sync = storage::WalSyncPolicy::kEveryNMs;
    options.sync_interval_ms = in.spec->wal_sync_interval_ms;
    fs::remove_all(options.dir);
    auto wal = storage::Wal::Open(options, storage::WalRecoveryResult{});
    if (!wal.ok()) return wal.status();
    const uint64_t empty_bytes = DirBytes(options.dir);
    OpStream stream(*in.spec, *in.shapes, *in.write_targets, in.extent,
                    in.seed * 7919 + 2);
    const std::string fingerprint = so::ConfigFingerprint(so::StandoffConfig{});
    for (size_t i = 0; i < sizes.wal_appends; ++i) {
      const WriteOp write = stream.NextWrite();
      storage::WalRecord record;
      record.op = write.insert ? storage::WalRecord::Op::kInsert
                               : storage::WalRecord::Op::kDelete;
      record.seq = i + 1;
      record.id = write.id;
      record.start = write.start;
      record.end = write.end;
      record.fingerprint = fingerprint;
      ScopedSpan span(buffer, "storage.wal_append");
      STANDOFF_RETURN_IF_ERROR((*wal)->Append(record));
    }
    STANDOFF_RETURN_IF_ERROR((*wal)->Sync());
    out->Add("storage.wal_append_us_p50",
             Median(trace->Micros("storage.wal_append")), "us");
    out->Add("storage.wal_bytes_per_write",
             static_cast<double>(DirBytes(options.dir) - empty_bytes) /
                 static_cast<double>(sizes.wal_appends),
             "bytes");

    storage::WalOptions replay;
    replay.dir = in.recovery_wal_dir;
    for (int rep = 0; rep < in.spec->recovery_restarts; ++rep) {
      StatusOr<storage::WalRecoveryResult> recovered = Status::Internal("unset");
      {
        ScopedSpan span(buffer, "storage.wal_replay");
        recovered = storage::ReplayWal(replay);
      }
      if (!recovered.ok()) return recovered.status();
      if (recovered->ops.size() != in.recovery_writes) {
        return Status::Internal("replay found " +
                                std::to_string(recovered->ops.size()) +
                                " ops, expected " +
                                std::to_string(in.recovery_writes));
      }
    }
    std::vector<double> replay_ms;
    for (double us : trace->Micros("storage.wal_replay")) {
      replay_ms.push_back(us / 1e3);
    }
    out->Add("storage.wal_replay_ms", Median(replay_ms), "ms");
  }

  // storage.compaction: base ⊎ delta rewritten to a snapshot, as the
  // server's auto-compaction does on its pool.
  {
    standoff::ThreadPool pool(in.spec->pool_workers);
    double bytes = 0;
    for (int rep = 0; rep < sizes.compactions; ++rep) {
      const std::string path = in.work_dir + "/layers-compact.sosnap";
      uint64_t frozen = 0;
      Status st;
      {
        ScopedSpan span(buffer, "storage.compact");
        st = writes.store->CompactToSnapshot(path, &pool, &frozen);
      }
      if (!st.ok()) return st;
      bytes = static_cast<double>(fs::file_size(path));
      fs::remove(path);
    }
    std::vector<double> compact_ms;
    for (double us : trace->Micros("storage.compact")) {
      compact_ms.push_back(us / 1e3);
    }
    out->Add("storage.compact_ms_p50", Median(compact_ms), "ms");
    out->Add("storage.compact_bytes_rewritten", bytes, "bytes");
  }
  return Status::OK();
}

}  // namespace perfbench
