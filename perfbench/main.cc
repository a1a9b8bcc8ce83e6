// Server benchmark program. One process runs one workload against an
// in-process server::Server and prints its metrics as one JSON line.
//
//   perfbench --workload <hot_reads|scan_large|read_write> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//             [--tiny] [--corrupt-reference]
//
// Phases: setup (bootstrap + Server::Start, repeated; setup_s is the
// median), the in-process reference, a discarded warm-up, the timed
// closed-loop window, and the recovery phase (N seeded acknowledged
// writes, then K restarts over a copy of that WAL; repeated in rounds
// on the small corpus). --trace 1 runs the same phases, then the
// per-layer passes, and reports per-layer metrics instead of
// end-to-end ones.
//
// Every reply is checked against the reference; any mismatch, empty
// result, or failed durability check prints "correct": false and
// exits 1.
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "reference.h"
#include "server/bootstrap.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/snapshot.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using standoff::Status;
using standoff::StatusOr;
using standoff::server::Client;
using standoff::server::QueryReply;
using standoff::server::Server;
using standoff::server::ServerConfig;
using standoff::server::ServerStats;

/// Operations per trace-overhead block: in a traced run, even blocks
/// record spans and odd blocks do not, so both halves see the same host
/// conditions and their duration ratio is the tracing overhead.
constexpr uint64_t kTraceBlockOps = 32;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  bool tiny = false;
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0;
}

struct Counts {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t error = 0;
  void Merge(const Counts& o) {
    attempted += o.attempted;
    ok += o.ok;
    busy += o.busy;
    error += o.error;
  }
};

void Append(std::vector<double>* a, const std::vector<double>& b) {
  a->insert(a->end(), b.begin(), b.end());
}

using ByShape = std::vector<std::vector<double>>;

void Record(ByShape* by_shape, uint32_t shape, double us) {
  if (by_shape->size() <= shape) by_shape->resize(shape + 1);
  (*by_shape)[shape].push_back(us);
}

void MergeByShape(ByShape* a, const ByShape& b) {
  if (a->size() < b.size()) a->resize(b.size());
  for (size_t i = 0; i < b.size(); ++i) Append(&(*a)[i], b[i]);
}

/// Geometric mean, over the shapes `pick` selects that have samples,
/// of each shape's median latency; 0 when none has samples. A class of
/// a few fixed shapes has one latency mode per shape, so a median
/// pooled over the class lands between modes and jumps with small
/// shifts in the mix; each shape's own median does not.
template <typename Pick>
double ShapeMedianGeomean(const ByShape& by_shape, Pick pick) {
  double log_sum = 0;
  size_t n = 0;
  for (uint32_t i = 0; i < by_shape.size(); ++i) {
    if (by_shape[i].empty() || !pick(i)) continue;
    log_sum += std::log(Median(by_shape[i]));
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

/// One connection's results in one phase; merged after the threads
/// join. Latency samples are client-observed and taken over the whole
/// timed phase.
struct Tally {
  /// Chain reads pooled, and write acknowledgements.
  std::vector<double> chain_us, write_us;
  /// Read latencies by shape id: every read of a fixed mix and every
  /// FLWOR read (`shape_us`), and reads that follow the connection's own
  /// write (`fresh_us`).
  ByShape shape_us, fresh_us;
  std::vector<double> exec_us, outside_us;
  double result_bytes = 0;
  uint64_t reads = 0;
  Counts chain, flwor, write;
  uint64_t problems = 0;
  std::string first_problem;
  std::vector<double> traced_block_s, untraced_block_s;
  /// Largest reply per shape (stderr report).
  std::vector<double> shape_bytes;

  void Problem(const std::string& what) {
    ++problems;
    if (first_problem.empty()) first_problem = what;
  }
  void Merge(const Tally& o) {
    Append(&chain_us, o.chain_us);
    Append(&write_us, o.write_us);
    MergeByShape(&shape_us, o.shape_us);
    MergeByShape(&fresh_us, o.fresh_us);
    Append(&exec_us, o.exec_us);
    Append(&outside_us, o.outside_us);
    Append(&traced_block_s, o.traced_block_s);
    Append(&untraced_block_s, o.untraced_block_s);
    result_bytes += o.result_bytes;
    reads += o.reads;
    chain.Merge(o.chain);
    flwor.Merge(o.flwor);
    write.Merge(o.write);
    problems += o.problems;
    if (first_problem.empty()) first_problem = o.first_problem;
    shape_bytes.resize(std::max(shape_bytes.size(), o.shape_bytes.size()), 0);
    for (size_t i = 0; i < o.shape_bytes.size(); ++i) {
      shape_bytes[i] = std::max(shape_bytes[i], o.shape_bytes[i]);
    }
  }
  uint64_t attempted() const {
    return chain.attempted + flwor.attempted + write.attempted;
  }
  uint64_t failed() const {
    return chain.busy + chain.error + flwor.busy + flwor.error + write.busy +
           write.error;
  }
};

/// What the client loops share (read-only while clients run).
struct Env {
  const WorkloadSpec* spec = nullptr;
  const std::vector<Shape>* shapes = nullptr;
  const Reference* reference = nullptr;
  const std::vector<uint32_t>* targets = nullptr;
  int64_t extent = 0;
  uint64_t seed = 0;
};

/// Checks one ok reply. Write-sensitive shapes are compared only when
/// no write can be in flight (`exact`); every reply must carry rows.
void CheckReply(const Env& env, uint32_t shape, const QueryReply& reply,
                bool exact, Tally* tally) {
  const Shape& s = (*env.shapes)[shape];
  if (reply.rows == 0) {
    tally->Problem("no rows: " + s.text);
    return;
  }
  if (!exact && s.write_sensitive) return;
  if (HashPayload(reply.payload) != env.reference->hash[shape] ||
      reply.rows != env.reference->rows[shape]) {
    tally->Problem("result differs from reference: " + s.text);
  }
}

StatusOr<uint64_t> SendWrite(Client* client, const WriteOp& write) {
  return write.insert
             ? client->InsertRegion(0, write.id, write.start, write.end)
             : client->DeleteRegions(0, write.id);
}

void CountStatus(const Status& status, bool busy, Counts* counts) {
  counts->attempted += 1;
  if (!status.ok()) {
    counts->error += 1;
  } else if (busy) {
    counts->busy += 1;
  } else {
    counts->ok += 1;
  }
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One closed-loop connection of the timed window: operations started
/// before `start` are warm-up (checked, not recorded); the loop ends
/// at the first operation that would start after `end`. Queries go
/// through plain Client::Query, so a busy reply is a counted failure,
/// never a retry hidden inside a latency.
void WindowClient(const Env& env, uint16_t port, uint32_t conn,
                  Clock::time_point start, Clock::time_point end,
                  TraceBuffer* trace, Tally* out) {
  auto client = Client::Connect(port);
  if (!client.ok()) {
    out->Problem("connect: " + client.status().ToString());
    return;
  }
  OpStream stream(*env.spec, *env.shapes, *env.targets, env.extent,
                  env.seed * 1009 + conn + 1);
  const bool writes = env.spec->write_every > 0;
  const bool traced_run = trace->enabled();
  bool after_write = false;
  uint64_t timed_ops = 0;
  Clock::time_point block_start;
  for (uint64_t request = (uint64_t{conn} << 40) + 1;; ++request) {
    const Clock::time_point t0 = Clock::now();
    if (t0 >= end) break;
    const bool timed = t0 >= start;
    if (timed && timed_ops % kTraceBlockOps == 0) {
      const uint64_t block = timed_ops / kTraceBlockOps;
      if (block > 0) {
        (block % 2 == 1 ? out->traced_block_s : out->untraced_block_s)
            .push_back(SecondsBetween(block_start, t0));
      }
      block_start = t0;
      trace->set_enabled(traced_run && block % 2 == 0);
    }
    const Op op = stream.Next();
    bool ok = false;
    Clock::time_point t1;
    if (op.kind == Op::Kind::kWrite) {
      StatusOr<uint64_t> seq = uint64_t{0};
      {
        ScopedSpan span(trace, op.write.insert ? "server.insert_region"
                                               : "server.delete_regions",
                        request);
        seq = SendWrite(client->get(), op.write);
      }
      t1 = Clock::now();
      if (timed) CountStatus(seq.status(), false, &out->write);
      ok = seq.ok();
    } else {
      const Shape& shape = (*env.shapes)[op.shape];
      StatusOr<QueryReply> reply = QueryReply{};
      {
        ScopedSpan span(trace, "server.query", request);
        reply = (*client)->Query(shape.text);
      }
      t1 = Clock::now();
      const bool busy = reply.ok() && reply->busy;
      if (timed) {
        CountStatus(reply.status(), busy,
                    shape.flwor ? &out->flwor : &out->chain);
      }
      ok = reply.ok() && !busy;
      if (ok) {
        CheckReply(env, op.shape, *reply, !writes, out);
        if (timed && t1 <= end) {
          const double us = Micros(t0, t1);
          out->exec_us.push_back(static_cast<double>(reply->server_micros));
          out->outside_us.push_back(us -
                                    static_cast<double>(reply->server_micros));
          out->result_bytes += static_cast<double>(reply->payload.size());
          out->reads += 1;
          if (!shape.flwor) out->chain_us.push_back(us);
          if (shape.flwor || !env.spec->scan) {
            Record(&out->shape_us, op.shape, us);
            out->shape_bytes.resize(env.shapes->size(), 0);
            out->shape_bytes[op.shape] =
                static_cast<double>(reply->payload.size());
          }
          if (after_write) Record(&out->fresh_us, op.shape, us);
        }
      }
    }
    if (!ok && !timed) out->Problem("warm-up operation failed");
    if (ok && timed && t1 <= end && op.kind == Op::Kind::kWrite) {
      out->write_us.push_back(Micros(t0, t1));
    }
    after_write = ok && op.kind == Op::Kind::kWrite;
    if (timed) ++timed_ops;
  }
  trace->set_enabled(traced_run);
}

/// Queries every shape once over `connections` parallel clients and
/// compares with `expected`; per-shape hashes go to `got` when
/// non-null. Verification queries are checks, not workload operations:
/// a failed one is a problem, not a failure count.
void VerifyShapes(uint16_t port, uint32_t connections,
                  const std::vector<Shape>& shapes,
                  const std::vector<uint64_t>& expected,
                  std::vector<uint64_t>* got, const char* when, Tally* out) {
  std::vector<uint64_t> hashes(shapes.size(), 0);
  std::vector<Tally> tallies(connections);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect(port);
      if (!client.ok()) {
        tallies[c].Problem(std::string(when) + ": connect failed");
        return;
      }
      for (size_t i = c; i < shapes.size(); i += connections) {
        auto reply = (*client)->Query(shapes[i].text);
        if (!reply.ok() || reply->busy) {
          tallies[c].Problem(std::string(when) + ": query failed: " +
                             shapes[i].text);
          continue;
        }
        hashes[i] = HashPayload(reply->payload);
        if (reply->rows == 0 || hashes[i] != expected[i]) {
          tallies[c].Problem(std::string(when) + ": result differs: " +
                             shapes[i].text);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Tally& tally : tallies) {
    out->problems += tally.problems;
    if (out->first_problem.empty()) out->first_problem = tally.first_problem;
  }
  if (got != nullptr) *got = std::move(hashes);
}

ServerConfig BaseConfig(const WorkloadSpec& spec) {
  ServerConfig config;
  config.pool_workers = spec.pool_workers;
  config.admission_capacity = 8;
  config.max_connections = spec.connections + 8;
  config.wal_sync = standoff::storage::WalSyncPolicy::kEveryNMs;
  config.wal_sync_interval_ms = spec.wal_sync_interval_ms;
  return config;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The recovery phase: a fresh server over the boot snapshot and an
/// empty WAL takes N seeded writes, each followed by the writer's own
/// fresh read; every shape is checked against a reference over the
/// server's quiesced view; the server stops. Then K times: copy the
/// WAL, restart over the copy (timed), require wal_replayed_ops == N
/// and every shape unchanged.
struct RecoveryOutcome {
  Tally tally;
  std::vector<double> restart_ms;
  /// Of the last round.
  ServerStats writer_stats;
  uint64_t acknowledged = 0;
};

Status RunRecovery(const Env& env, const std::string& snapshot,
                   const std::string& work, TraceBuffer* trace,
                   RecoveryOutcome* out) {
  const WorkloadSpec& spec = *env.spec;
  const std::string source_wal = work + "/wal-recovery";
  fs::remove_all(source_wal);
  ServerConfig config = BaseConfig(spec);
  config.wal_dir = source_wal;
  auto started = Server::Start(snapshot, config);
  if (!started.ok()) return started.status();
  std::unique_ptr<Server> server = started.MoveValueUnsafe();

  // Each write is followed by a read of the next probe shape, cycled
  // in a fixed order: the whole mix for fixed-mix workloads, the Figure 6
  // queries (which bind the written document) for scans, whose thousands
  // of chain shapes differ too much in cost for a few hundred samples.
  std::vector<uint32_t> probes;
  for (uint32_t i = 0; i < env.shapes->size(); ++i) {
    if (!spec.scan || (*env.shapes)[i].flwor) probes.push_back(i);
  }
  const uint32_t conns = spec.connections;
  std::vector<Tally> tallies(conns);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[c];
      auto client = Client::Connect(server->port());
      if (!client.ok()) {
        tally.Problem("recovery connect failed");
        return;
      }
      OpStream stream(spec, *env.shapes, *env.targets, env.extent,
                      env.seed * 7919 + c + 1);
      const int writes = spec.recovery_writes / static_cast<int>(conns);
      for (int w = 0; w < writes; ++w) {
        const WriteOp write = stream.NextWrite();
        Clock::time_point t0 = Clock::now();
        auto seq = SendWrite(client->get(), write);
        Clock::time_point t1 = Clock::now();
        CountStatus(seq.status(), false, &tally.write);
        if (!seq.ok()) continue;
        tally.write_us.push_back(Micros(t0, t1));
        const uint32_t probe =
            probes[(static_cast<size_t>(w) * conns + c) % probes.size()];
        const Shape& shape = (*env.shapes)[probe];
        t0 = Clock::now();
        auto reply = (*client)->Query(shape.text);
        t1 = Clock::now();
        const bool busy = reply.ok() && reply->busy;
        CountStatus(reply.status(), busy,
                    shape.flwor ? &tally.flwor : &tally.chain);
        if (reply.ok() && !busy) {
          CheckReply(env, probe, *reply, false, &tally);
          Record(&tally.fresh_us, probe, Micros(t0, t1));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  uint64_t acknowledged = 0;
  for (const Tally& tally : tallies) {
    acknowledged += tally.write.ok;
    out->tally.Merge(tally);
  }
  out->writer_stats = server->stats();
  out->acknowledged = acknowledged;

  // Reference over the quiesced post-write state, then the wire check.
  std::vector<uint64_t> before;
  {
    auto view = server->mutable_store()->View();
    auto ref = ComputeReference(*view, *env.shapes, 2);
    if (!ref.ok()) return ref.status();
    VerifyShapes(server->port(), conns, *env.shapes, ref->hash, &before,
                 "after recovery writes", &out->tally);
  }
  server->Stop();
  server.reset();

  for (int k = 0; k < spec.recovery_restarts; ++k) {
    const std::string copy = work + "/wal-restart";
    fs::remove_all(copy);
    fs::copy(source_wal, copy, fs::copy_options::recursive);
    config.wal_dir = copy;
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<Server>> restarted = Status::Internal("unset");
    {
      ScopedSpan span(trace, "server.start_recover");
      restarted = Server::Start(snapshot, config);
    }
    const Clock::time_point t1 = Clock::now();
    if (!restarted.ok()) return restarted.status();
    out->restart_ms.push_back(SecondsBetween(t0, t1) * 1e3);
    const ServerStats stats = (*restarted)->stats();
    if (stats.wal_replayed_ops != acknowledged) {
      out->tally.Problem("restart replayed " +
                         std::to_string(stats.wal_replayed_ops) +
                         " WAL ops, expected " + std::to_string(acknowledged));
    }
    VerifyShapes((*restarted)->port(), conns, *env.shapes, before, nullptr,
                 "after restart", &out->tally);
    (*restarted)->Stop();
  }
  return Status::OK();
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.9g", m.value);
    line += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Attempted / ok / busy / error per operation type, one JSON line per
/// phase (before the result line).
void PrintAccounting(const std::string& workload, const char* phase,
                     const Tally& t) {
  auto counts = [](const Counts& c) {
    return "{\"attempted\": " + std::to_string(c.attempted) +
           ", \"ok\": " + std::to_string(c.ok) +
           ", \"busy\": " + std::to_string(c.busy) +
           ", \"error\": " + std::to_string(c.error) + "}";
  };
  std::printf(
      "{\"accounting\": {\"workload\": \"%s\", \"phase\": \"%s\", "
      "\"chain\": %s, \"flwor\": %s, \"write\": %s}}\n",
      workload.c_str(), phase, counts(t.chain).c_str(),
      counts(t.flwor).c_str(), counts(t.write).c_str());
}

void ReportShapes(const std::string& workload, const std::vector<Shape>& shapes,
                  const Tally& window) {
  for (size_t i = 0; i < window.shape_us.size(); ++i) {
    if (window.shape_us[i].empty()) continue;
    std::fprintf(stderr, "[%s]   p50 %9.1f us  p99 %9.1f us  %8.0f B  %s\n",
                 workload.c_str(), Percentile(window.shape_us[i], 0.5),
                 Percentile(window.shape_us[i], 0.99), window.shape_bytes[i],
                 shapes[i].text.c_str());
  }
}

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  return 2;
}

int Run(const Args& args) {
  auto spec_or = MakeSpec(args.workload, args.tiny);
  if (!spec_or.ok()) return Fail("workload", spec_or.status());
  const WorkloadSpec spec = *spec_or;
  const std::string work = args.work_dir;
  std::error_code ec;
  fs::create_directories(work, ec);
  if (ec) return Fail("work dir", Status::Internal(ec.message()));

  Trace trace(args.trace);
  TraceBuffer* main_trace = trace.NewBuffer();
  const auto corpus = CorpusOptions(spec, args.seed);
  const std::string snapshot = work + "/corpus.sosnap";
  ServerConfig window_config = BaseConfig(spec);
  if (spec.write_every > 0) {
    window_config.wal_dir = work + "/wal-window";
    window_config.compact_live_rows_threshold = spec.compact_threshold;
  }

  // --- Setup: bootstrap + start, repeated; setup_s is the median. ------
  std::vector<double> setup_s;
  std::unique_ptr<Server> server;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    if (server != nullptr) server->Stop();
    server.reset();
    if (!window_config.wal_dir.empty()) fs::remove_all(window_config.wal_dir);
    const Clock::time_point t0 = Clock::now();
    Status built;
    {
      ScopedSpan span(main_trace, "server.bootstrap");
      built = standoff::server::BuildXmarkSnapshot(snapshot, corpus);
    }
    if (!built.ok()) return Fail("bootstrap", built);
    StatusOr<std::unique_ptr<Server>> started = Status::Internal("unset");
    {
      ScopedSpan span(main_trace, "server.start");
      started = Server::Start(snapshot, window_config);
    }
    if (!started.ok()) return Fail("server start", started.status());
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    server = started.MoveValueUnsafe();
  }

  // --- Inputs and reference (not timed). ----------------------------------
  uint64_t input_bytes = 0;
  const Status generated = GenerateCorpus(
      corpus, nullptr, 0,
      [&input_bytes](std::string, std::string xml, std::string blob) {
        input_bytes += xml.size() + blob.size();
        return Status::OK();
      });
  if (!generated.ok()) return Fail("generate", generated);
  const double snapshot_bytes = static_cast<double>(fs::file_size(snapshot));
  auto opened = standoff::storage::Snapshot::Open(snapshot);
  if (!opened.ok()) return Fail("open snapshot", opened.status());
  const std::shared_ptr<const standoff::storage::ShardedStore> base =
      (*opened)->shared_store();
  opened->reset();
  const std::vector<Shape> shapes = BuildShapes(spec, *base);
  const std::vector<uint32_t> targets = WriteTargets(*base);
  if (targets.empty()) {
    return Fail("workload", Status::Invalid("no write-target elements"));
  }
  auto reference = ComputeReference(*base, shapes, 2);
  if (!reference.ok()) return Fail("reference", reference.status());
  if (args.corrupt_reference) {
    // Flip the first shape every phase compares exactly.
    for (size_t i = 0; i < shapes.size(); ++i) {
      if (!shapes[i].write_sensitive) {
        reference->hash[i] ^= 1;
        break;
      }
    }
  }
  Env env;
  env.spec = &spec;
  env.shapes = &shapes;
  env.reference = &*reference;
  env.targets = &targets;
  env.extent = RegionExtent(*base);
  env.seed = args.seed;

  // --- Timed closed-loop window. -------------------------------------------
  const Clock::time_point start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(spec.warmup_seconds));
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<Tally> tallies(spec.connections);
  std::vector<TraceBuffer*> buffers;
  for (uint32_t c = 0; c < spec.connections; ++c) {
    buffers.push_back(trace.NewBuffer());
  }
  std::atomic<bool> window_done{false};
  std::vector<double> live_delta;
  std::thread sampler;
  if (spec.write_every > 0) {
    // Live delta footprint over the window, sizing the merge pass.
    sampler = std::thread([&] {
      while (!window_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (Clock::now() < start) continue;
        const ServerStats stats = server->stats();
        live_delta.push_back(static_cast<double>(
            stats.delta_live_rows + stats.delta_live_tombstones));
      }
    });
  }
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < spec.connections; ++c) {
    clients.emplace_back([&, c] {
      WindowClient(env, server->port(), c, start, end, buffers[c],
                   &tallies[c]);
    });
  }
  for (auto& thread : clients) thread.join();
  window_done.store(true);
  if (sampler.joinable()) sampler.join();
  Tally window;
  for (const Tally& tally : tallies) window.Merge(tally);
  const ServerStats window_stats = server->stats();
  std::fprintf(stderr,
               "[%s] shapes=%zu reads=%llu writes=%llu compactions=%llu "
               "memo_hits=%llu memo_misses=%llu\n",
               spec.name.c_str(), shapes.size(),
               static_cast<unsigned long long>(window.reads),
               static_cast<unsigned long long>(window.write.ok),
               static_cast<unsigned long long>(window_stats.auto_compactions),
               static_cast<unsigned long long>(window_stats.subplan_hits),
               static_cast<unsigned long long>(window_stats.subplan_misses));
  ReportShapes(spec.name, shapes, window);

  if (spec.write_every > 0) {
    // Quiesced end state: reference over the server's own view.
    auto view = server->mutable_store()->View();
    auto final_ref = ComputeReference(*view, shapes, 2);
    if (!final_ref.ok()) return Fail("final reference", final_ref.status());
    VerifyShapes(server->port(), spec.connections, shapes, final_ref->hash,
                 nullptr, "end of window", &window);
  }
  server->Stop();
  server.reset();
  // Compacted generations (<snapshot>.gen<N>) are no longer needed.
  for (const auto& entry : fs::directory_iterator(work)) {
    if (entry.path().filename().string().rfind("corpus.sosnap.gen", 0) == 0) {
      fs::remove(entry.path());
    }
  }

  // --- Recovery phase. -------------------------------------------------------
  // Rounds repeat the phase with the same writes, so its samples span
  // several seconds of host conditions rather than one.
  const Clock::time_point recovery_start = Clock::now();
  RecoveryOutcome recovery;
  for (int round = 0; round < spec.recovery_rounds; ++round) {
    const Status recovered =
        RunRecovery(env, snapshot, work, main_trace, &recovery);
    if (!recovered.ok()) return Fail("recovery", recovered);
  }
  std::fprintf(stderr, "[%s] recovery phase: %d rounds in %.2f s\n",
               spec.name.c_str(), spec.recovery_rounds,
               SecondsBetween(recovery_start, Clock::now()));

  // Write and fresh-read latencies come from the window when it writes,
  // otherwise from the recovery phase's write/read pairs.
  const bool window_writes = spec.write_every > 0;
  const Tally& writes = window_writes ? window : recovery.tally;
  const ServerStats& write_stats =
      window_writes ? window_stats : recovery.writer_stats;

  auto is_chain = [&shapes](uint32_t i) { return !shapes[i].flwor; };
  auto is_flwor = [&shapes](uint32_t i) { return shapes[i].flwor; };
  Metrics metrics;
  if (!args.trace) {
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("read_qps", static_cast<double>(window.reads) / args.seconds,
                "1/s");
    // Scan chains are drawn uniformly from thousands of shapes, so their
    // pooled median is itself a smooth statistic.
    metrics.Add("chain_p50_us",
                spec.scan ? Percentile(window.chain_us, 0.50)
                          : ShapeMedianGeomean(window.shape_us, is_chain),
                "us");
    metrics.Add("flwor_p50_us", ShapeMedianGeomean(window.shape_us, is_flwor),
                "us");
    metrics.Add("write_p50_us", Percentile(writes.write_us, 0.50), "us");
    metrics.Add("fresh_read_p50_us",
                ShapeMedianGeomean(writes.fresh_us,
                                   [](uint32_t) { return true; }),
                "us");
    metrics.Add("recovery_ms", Median(recovery.restart_ms), "ms");
    metrics.Add("peak_rss_mib", PeakRssMib(), "MiB");
    metrics.Add("bytes_per_input_byte",
                snapshot_bytes / static_cast<double>(input_bytes), "ratio");
  } else {
    // Client-observed tails over each class's pooled samples: reported,
    // not gated (see README, noise findings).
    std::vector<double> flwor_us;
    for (uint32_t i = 0; i < window.shape_us.size(); ++i) {
      if (is_flwor(i)) Append(&flwor_us, window.shape_us[i]);
    }
    metrics.Add("client.chain_p99_us", Percentile(window.chain_us, 0.99), "us");
    metrics.Add("client.flwor_p99_us", Percentile(flwor_us, 0.99), "us");
    metrics.Add("client.write_p95_us", Percentile(writes.write_us, 0.95), "us");
    metrics.Add("server.exec_us_p50", Percentile(window.exec_us, 0.50), "us");
    metrics.Add("server.exec_us_p99", Percentile(window.exec_us, 0.99), "us");
    metrics.Add("server.outside_exec_us_p50",
                Percentile(window.outside_us, 0.50), "us");
    metrics.Add("server.result_bytes_mean",
                window.result_bytes /
                    static_cast<double>(std::max<uint64_t>(1, window.reads)),
                "bytes");
    metrics.Add("server.busy",
                static_cast<double>(window_stats.queries_rejected), "count");
    metrics.Add("server.errors",
                static_cast<double>(window_stats.queries_error), "count");
    const double probes = static_cast<double>(window_stats.subplan_hits +
                                              window_stats.subplan_misses);
    metrics.Add("xquery.memo_hit_ratio",
                probes > 0 ? static_cast<double>(window_stats.subplan_hits) /
                                 probes
                           : 0,
                "ratio");
    metrics.Add("xquery.memo_evictions",
                static_cast<double>(window_stats.subplan_evictions), "count");
    metrics.Add("storage.wal_fsyncs",
                static_cast<double>(write_stats.wal_fsyncs), "count");
    metrics.Add("storage.compactions",
                static_cast<double>(window_stats.auto_compactions), "count");
    const double untraced = Median(window.untraced_block_s);
    metrics.Add("trace.overhead_pct",
                untraced > 0
                    ? 100.0 * (Median(window.traced_block_s) / untraced - 1.0)
                    : 0,
                "%");
    LayerInputs layers;
    layers.spec = &spec;
    layers.seed = args.seed;
    layers.corpus = corpus;
    layers.snapshot_path = snapshot;
    layers.work_dir = work;
    layers.shapes = &shapes;
    layers.write_targets = &targets;
    layers.extent = env.extent;
    layers.live_delta_samples = live_delta;
    layers.recovery_wal_dir = work + "/wal-recovery";
    layers.recovery_writes = recovery.acknowledged;
    const Status passes = RunLayerPasses(layers, &trace, &metrics);
    if (!passes.ok()) return Fail("layer passes", passes);
    const std::string trace_path = fs::path(work).parent_path().string() +
                                   "/trace-" + spec.name + "-seed" +
                                   std::to_string(args.seed) + ".jsonl";
    if (!trace.WriteTo(trace_path, 20000)) {
      std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
    }
  }

  PrintAccounting(spec.name, "window", window);
  PrintAccounting(spec.name, "recovery", recovery.tally);
  const uint64_t problems = window.problems + recovery.tally.problems;
  if (problems > 0) {
    std::fprintf(stderr, "CHECK FAILED (%llu problems): %s\n",
                 static_cast<unsigned long long>(problems),
                 (window.first_problem.empty() ? recovery.tally.first_problem
                                               : window.first_problem)
                     .c_str());
  }
  PrintResult(problems == 0, window.attempted() + recovery.tally.attempted(),
              window.failed() + recovery.tally.failed(), metrics);
  return problems == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--tiny] "
                 "[--corrupt-reference]\n");
    return 2;
  }
  return perfbench::Run(args);
}
