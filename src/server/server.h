// A long-lived concurrent query server over an open snapshot.
//
// Threading model (DESIGN.md §13):
//
//   accept thread ── spawns ──> one thread per connection (frames are
//   handled serially per connection) ── admits each query through the
//   AdmissionGate, then evaluates it on its own Engine, serializes
//   the result, leaves the gate and streams the frames — all on the
//   connection thread. The shared ThreadPool runs only auto-compaction
//   and a compaction's merge fan-out.
//
// Backpressure: the gate bounds queries RUNNING across all
// connections. When it is full, a kQueryReq is answered immediately
// with kBusy — the request is never buffered, so a burst cannot grow
// an unbounded queue; clients retry with their own policy. Capacity 0
// rejects everything (useful for deterministic backpressure tests).
// The slot is released before the first result frame is written, so
// a slow reader never holds one.
//
// Snapshot hot-swap: SwapSnapshot opens the new file, publishes
// {generation+1, new shared store} under the state mutex, and destroys
// the Snapshot object immediately. Draining is entirely reference
// counting (the PR-7 mapping-lifetime contract): every admitted query
// captured a shared_ptr to the generation it started on, so in-flight
// work finishes over the old mapping and the munmap happens when the
// last reference drops. No query ever blocks on a swap, and a swap
// never waits for queries.
//
// A connection has one Engine for every document, whatever its shard:
// its region indexes, candidate sets, stats and sub-plan memo are keyed
// by document. The engine is built on the connection's first query and
// after a new base (a swap or compaction), and rebased (Engine::Rebase)
// onto the next view after a write, on the first query AFTER the view
// changes; an idle connection therefore pins the previous view and
// mapping until its next query — the deliberate cost of zero
// coordination on the query path.
#ifndef STANDOFF_SERVER_SERVER_H_
#define STANDOFF_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "storage/delta.h"
#include "storage/sharded_store.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "xquery/engine.h"

namespace standoff {
namespace server {

struct ServerConfig {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back
  /// with port()). Listens on 127.0.0.1 only.
  uint16_t port = 0;
  /// Workers for auto-compaction and compaction merges. Queries run on
  /// their connection threads, not here.
  uint32_t pool_workers = 2;
  /// Admission bound: queries running across all connections.
  /// Requests beyond it get kBusy. 0 = reject every query.
  uint32_t admission_capacity = 8;
  /// Connections beyond this are greeted with kError and closed.
  uint32_t max_connections = 64;
  /// Per-query engine timeout in seconds; <= 0 means unlimited.
  double query_timeout_seconds = 0;
  /// Write-ahead durability (DESIGN.md §16). Empty = no WAL: writes
  /// are memory-only until an explicit compaction, exactly the PR-9
  /// behavior. Non-empty: the directory is created if needed, boot
  /// replays it (recovering every acknowledged write and truncating a
  /// torn tail), and each accepted write is logged before its ack.
  std::string wal_dir;
  storage::WalSyncPolicy wal_sync = storage::WalSyncPolicy::kAlways;
  double wal_sync_interval_ms = 5.0;
  /// Test hook: overrides the WAL's file I/O (fault injection). Null =
  /// real POSIX I/O. Must outlive the server.
  storage::FileIo* wal_io = nullptr;
  /// Threshold-triggered auto-compaction: when pending delta rows +
  /// tombstones reach this, a compaction is scheduled on the shared
  /// pool (at most one in flight). 0 disables.
  uint64_t compact_live_rows_threshold = 0;
};

struct ServerStats {
  uint64_t generation = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_rejected = 0;  // kBusy answers
  uint64_t queries_error = 0;     // parse or execution failures
  uint64_t connections_accepted = 0;
  uint64_t swaps = 0;
  /// Sub-plan memo probe outcomes summed over all chain queries (the
  /// engine-level CSE of DESIGN.md §14).
  uint64_t subplan_hits = 0;
  uint64_t subplan_misses = 0;
  uint64_t subplan_evictions = 0;
  /// Mutable-store counters (DESIGN.md §15): accepted writes, the
  /// delta rows / tombstones currently pending, and completed
  /// compactions.
  uint64_t delta_inserts = 0;
  uint64_t delta_deletes = 0;
  uint64_t delta_live_rows = 0;
  uint64_t delta_live_tombstones = 0;
  uint64_t compactions = 0;
  /// WAL durability counters (DESIGN.md §16): appends/fsyncs since
  /// boot, operations recovered by boot-time replay, bytes dropped
  /// from a torn tail at that replay, and completed threshold-
  /// triggered compactions. All zero when the WAL is off.
  uint64_t wal_appends = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_replayed_ops = 0;
  uint64_t wal_truncated_bytes = 0;
  uint64_t auto_compactions = 0;
  /// Per-connection engine turnover on a new view: a fresh engine (a
  /// connection's first query, or a new base after a swap or
  /// compaction) vs one carried over a delta write by Rebase.
  uint64_t engine_rebuilds = 0;
  uint64_t engine_rebases = 0;
};

/// One ServerStats counter: its wire/CLI name and its member.
struct ServerStatsField {
  const char* name;
  uint64_t ServerStats::*value;
};

/// Every ServerStats counter in kStatsRep order — the one list the
/// server encodes, the client decodes and `standoff_client --stats`
/// prints. Protocol versions only ever APPEND to it.
inline constexpr ServerStatsField kServerStatsFields[] = {
    {"generation", &ServerStats::generation},
    {"queries_ok", &ServerStats::queries_ok},
    {"queries_rejected", &ServerStats::queries_rejected},
    {"queries_error", &ServerStats::queries_error},
    {"connections_accepted", &ServerStats::connections_accepted},
    {"swaps", &ServerStats::swaps},
    {"subplan_hits", &ServerStats::subplan_hits},
    {"subplan_misses", &ServerStats::subplan_misses},
    {"subplan_evictions", &ServerStats::subplan_evictions},
    {"delta_inserts", &ServerStats::delta_inserts},
    {"delta_deletes", &ServerStats::delta_deletes},
    {"delta_live_rows", &ServerStats::delta_live_rows},
    {"delta_live_tombstones", &ServerStats::delta_live_tombstones},
    {"compactions", &ServerStats::compactions},
    {"wal_appends", &ServerStats::wal_appends},
    {"wal_fsyncs", &ServerStats::wal_fsyncs},
    {"wal_replayed_ops", &ServerStats::wal_replayed_ops},
    {"wal_truncated_bytes", &ServerStats::wal_truncated_bytes},
    {"auto_compactions", &ServerStats::auto_compactions},
    {"engine_rebuilds", &ServerStats::engine_rebuilds},
    {"engine_rebases", &ServerStats::engine_rebases},
};

/// Bounded admission: TryEnter either reserves a slot or reports the
/// gate full, wait-free either way.
class AdmissionGate {
 public:
  explicit AdmissionGate(uint32_t capacity) : capacity_(capacity) {}

  bool TryEnter() {
    if (in_flight_.fetch_add(1, std::memory_order_acquire) >=
        static_cast<int64_t>(capacity_)) {
      in_flight_.fetch_sub(1, std::memory_order_release);
      return false;
    }
    return true;
  }
  void Leave() { in_flight_.fetch_sub(1, std::memory_order_release); }

 private:
  std::atomic<int64_t> in_flight_{0};
  const int64_t capacity_;
};

class Server {
 public:
  /// Opens the snapshot (generation 1), binds, and starts accepting.
  static StatusOr<std::unique_ptr<Server>> Start(
      const std::string& snapshot_path, const ServerConfig& config);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves port 0 to the ephemeral port chosen).
  uint16_t port() const { return port_; }

  /// Opens `path` and atomically publishes it as the next generation.
  /// Returns the new generation number. In-flight queries drain over
  /// the old mapping by refcount; see the file comment. Pending deltas
  /// are DROPPED — their ids reference the replaced base.
  StatusOr<uint64_t> SwapSnapshot(const std::string& path);

  /// Compacts (base ⊎ delta) into a snapshot at `path` (empty = a
  /// server-chosen "<boot path>.gen<N>" sibling), reopens it, and
  /// publishes it as the next generation through the same hot-swap
  /// path; pending deltas are rebased, keeping exactly the writes
  /// issued after the freeze. Returns the new generation and, via
  /// *compacted_seq, the frozen sequence number.
  StatusOr<uint64_t> Compact(const std::string& path,
                             uint64_t* compacted_seq);

  /// The mutable store every write frame lands in. Thread-safe.
  storage::MutableStore* mutable_store() { return mutable_store_.get(); }

  uint64_t generation() const;
  ServerStats stats() const;

  /// Stops accepting, wakes every connection, joins all threads, and
  /// drains the pool. Idempotent; the destructor calls it.
  void Stop();

 private:
  struct ConnState;

  Server(ServerConfig config);

  void AcceptLoop();
  void ConnectionLoop(int fd);
  /// One kQueryReq: parse, admit, evaluate inline, stream the result.
  /// Returns false when the connection is no longer writable.
  bool HandleQuery(int fd, ConnState* conn, const std::string& text);
  bool HandleInsert(int fd, const std::string& body);
  bool HandleDelete(int fd, const std::string& body);
  bool HandleCompact(int fd, const std::string& body);
  void SendStats(int fd);
  /// Compact() body with an explicit merge pool — the threshold-
  /// triggered path runs ON a pool worker and must not hand the
  /// parallel merges to a 1-worker pool (ParallelFor's helper task
  /// would sit behind the waiting caller forever).
  StatusOr<uint64_t> CompactWith(const std::string& path,
                                 uint64_t* compacted_seq,
                                 ThreadPool* merge_pool);

  const ServerConfig config_;
  uint16_t port_ = 0;
  std::string boot_snapshot_path_;
  // Atomic: Stop() retires the fd concurrently with AcceptLoop's reads.
  std::atomic<int> listen_fd_{-1};

  mutable std::mutex state_mu_;
  uint64_t generation_ = 0;
  /// Serializes base replacement (SwapSnapshot, Compact) end to end —
  /// write frames and queries never take it.
  std::mutex admin_mu_;
  /// Base generations + pending deltas. Queries pin one frozen
  /// (generation, delta sequence) view at admission. Set once in
  /// Start(), before any thread exists; never null afterwards.
  std::unique_ptr<storage::MutableStore> mutable_store_;
  /// Write-ahead log; null when config.wal_dir is empty. Outlives
  /// every write (destroyed after Stop() joined all threads).
  std::unique_ptr<storage::Wal> wal_;
  uint64_t wal_replayed_ops_ = 0;     // set once at boot
  uint64_t wal_truncated_bytes_ = 0;  // set once at boot

  AdmissionGate gate_;
  std::unique_ptr<ThreadPool> pool_;

  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::vector<std::thread> conn_threads_;
  /// Connection threads that have left ConnectionLoop; the accept loop
  /// joins them before spawning the next one, so exited connections do
  /// not keep their stacks mapped.
  std::vector<std::thread::id> finished_threads_;
  std::vector<int> live_fds_;
  std::atomic<int64_t> live_connections_{0};

  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_rejected_{0};
  std::atomic<uint64_t> queries_error_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> swaps_{0};
  std::atomic<uint64_t> subplan_hits_{0};
  std::atomic<uint64_t> subplan_misses_{0};
  std::atomic<uint64_t> subplan_evictions_{0};
  std::atomic<uint64_t> auto_compactions_{0};
  std::atomic<uint64_t> engine_rebuilds_{0};
  std::atomic<uint64_t> engine_rebases_{0};
};

}  // namespace server
}  // namespace standoff

#endif  // STANDOFF_SERVER_SERVER_H_
