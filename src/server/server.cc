#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/timer.h"
#include "server/query_text.h"
#include "server/wire.h"
#include "standoff/region_index.h"

namespace standoff {
namespace server {

namespace {

/// Result kinds stamped into kResultHeader.
constexpr uint8_t kKindChain = 0;
constexpr uint8_t kKindFlwor = 1;

std::string ErrorBody(const Status& status) {
  std::string body;
  body.push_back(static_cast<char>(status.code()));
  body.append(status.message());
  return body;
}

/// Chain payload: u32 context count + ids, u32 match count + rows of
/// (u32 iter, u32 pre). Fixed little-endian layout, identical no
/// matter which generation or server produced it — the hot-swap test
/// compares these bytes against a cold single-process run. Appends to
/// `*out`.
void SerializeChain(const xquery::ChainResult& result, std::string* out) {
  out->reserve(out->size() + 8 + 4 * result.context_ids.size() +
               8 * result.matches.size());
  AppendU32(out, static_cast<uint32_t>(result.context_ids.size()));
  for (storage::Pre id : result.context_ids) AppendU32(out, id);
  AppendU32(out, static_cast<uint32_t>(result.matches.size()));
  for (const so::IterMatch& match : result.matches) {
    AppendU32(out, match.iter);
    AppendU32(out, match.pre);
  }
}

/// FLWOR payload: u32 item count, then per item a u8 kind tag and the
/// value (node: u32 doc + u32 pre; int/double: 8 bytes; string: u32
/// length + bytes). Appends to `*out`.
void SerializeFlwor(const algebra::QueryResult& result, std::string* out) {
  using Kind = algebra::Item::Kind;
  AppendU32(out, static_cast<uint32_t>(result.items.size()));
  for (const auto& item : result.items) {
    out->push_back(static_cast<char>(item.kind()));
    switch (item.kind()) {
      case Kind::kNode: {
        const auto node = item.stored_node();
        AppendU32(out, node.doc);
        AppendU32(out, node.pre);
        break;
      }
      case Kind::kInt:
        AppendU64(out, static_cast<uint64_t>(item.int_value()));
        break;
      case Kind::kDouble: {
        uint64_t bits = 0;
        const double value = item.double_value();
        static_assert(sizeof bits == sizeof value, "double is 8 bytes");
        std::memcpy(&bits, &value, sizeof bits);
        AppendU64(out, bits);
        break;
      }
      case Kind::kString: {
        const std::string& text = item.string_value();
        AppendU32(out, static_cast<uint32_t>(text.size()));
        out->append(text);
        break;
      }
    }
  }
}

/// A write frame's config fingerprint: the rest of the body after the
/// fixed fields. Empty means the default config; anything else must
/// parse.
StatusOr<std::string> WriteFingerprint(std::string_view rest) {
  std::string fingerprint(rest);
  if (fingerprint.empty()) return so::ConfigFingerprint(so::StandoffConfig{});
  STANDOFF_RETURN_IF_ERROR(so::ParseConfigFingerprint(fingerprint).status());
  return fingerprint;
}

}  // namespace

/// Per-connection execution state: the frozen delta view this
/// connection's engine was built over (it pins that generation's
/// mapping plus its delta runs), the warmed Engine, the result buffer
/// each query serializes into (cleared per query, its capacity kept),
/// and the writer that sends a reply's frames in one gathered write
/// (its chunk iovecs point into `payload`). Only the connection's own
/// thread touches it — frames are serial per connection.
struct Server::ConnState {
  std::shared_ptr<const storage::DeltaStoreView> view;
  std::unique_ptr<xquery::Engine> engine;
  std::string payload;
  FrameWriter writer;
};

Server::Server(ServerConfig config)
    : config_(config), gate_(config.admission_capacity) {}

StatusOr<std::unique_ptr<Server>> Server::Start(
    const std::string& snapshot_path, const ServerConfig& config) {
  // Boot-time WAL recovery (DESIGN.md §16) happens BEFORE the snapshot
  // opens: the log's newest segment header may point at a compacted
  // generation that supersedes the boot snapshot.
  const bool wal_enabled = !config.wal_dir.empty();
  storage::WalOptions wal_options;
  storage::WalRecoveryResult recovery;
  if (wal_enabled) {
    wal_options.dir = config.wal_dir;
    wal_options.sync = config.wal_sync;
    wal_options.sync_interval_ms = config.wal_sync_interval_ms;
    wal_options.io = config.wal_io;
    auto replayed = storage::ReplayWal(wal_options);
    if (!replayed.ok()) return replayed.status();
    recovery = replayed.MoveValueUnsafe();
  }
  const std::string base_path =
      recovery.base_path.empty() ? snapshot_path : recovery.base_path;
  auto snapshot = storage::Snapshot::Open(base_path);
  if (!snapshot.ok()) return snapshot.status();

  std::unique_ptr<Server> server(new Server(config));
  server->generation_ = 1;
  server->boot_snapshot_path_ = snapshot_path;
  server->mutable_store_ =
      std::make_unique<storage::MutableStore>((*snapshot)->shared_store());
  snapshot->reset();  // the shared store keeps the mapping alive
  if (wal_enabled) {
    // Re-apply the acknowledged writes the log holds, then open a
    // fresh segment (pinned to the recovered base) for new writes.
    STANDOFF_RETURN_IF_ERROR(server->mutable_store_->Restore(recovery));
    server->wal_replayed_ops_ = recovery.ops.size();
    server->wal_truncated_bytes_ = recovery.truncated_bytes;
    auto wal = storage::Wal::Open(wal_options, recovery);
    if (!wal.ok()) return wal.status();
    server->wal_ = wal.MoveValueUnsafe();
    server->mutable_store_->AttachWal(server->wal_.get());
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const Status st =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    const Status st =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    const Status st =
        Status::Internal(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  server->port_ = ntohs(addr.sin_port);
  server->listen_fd_ = fd;

  server->pool_ = std::make_unique<ThreadPool>(config.pool_workers);
  if (config.compact_live_rows_threshold > 0) {
    // Threshold-triggered auto-compaction rides the shared pool: the
    // write that crosses the threshold schedules the task (outside the
    // store lock) and MutableStore keeps the latch set until the
    // compaction is adopted or reported failed.
    Server* raw = server.get();
    server->mutable_store_->SetAutoCompact(
        config.compact_live_rows_threshold, [raw] {
          raw->pool_->Submit([raw] {
            if (raw->stopping_.load(std::memory_order_acquire)) {
              raw->mutable_store_->AutoCompactDone();
              return;
            }
            uint64_t seq = 0;
            // From a pool worker the merges may only fan out when a
            // SECOND worker exists to run ParallelFor's helper tasks.
            ThreadPool* merge_pool =
                raw->config_.pool_workers >= 2 ? raw->pool_.get() : nullptr;
            if (raw->CompactWith("", &seq, merge_pool).ok()) {
              raw->auto_compactions_.fetch_add(1, std::memory_order_relaxed);
            } else {
              raw->mutable_store_->AutoCompactDone();
            }
          });
        });
  }
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  return server;
}

Server::~Server() { Stop(); }

uint64_t Server::generation() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return generation_;
}

ServerStats Server::stats() const {
  ServerStats out;
  out.generation = generation();
  out.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  out.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
  out.queries_error = queries_error_.load(std::memory_order_relaxed);
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.swaps = swaps_.load(std::memory_order_relaxed);
  out.subplan_hits = subplan_hits_.load(std::memory_order_relaxed);
  out.subplan_misses = subplan_misses_.load(std::memory_order_relaxed);
  out.subplan_evictions = subplan_evictions_.load(std::memory_order_relaxed);
  const storage::DeltaStats delta = mutable_store_->stats();
  out.delta_inserts = delta.inserts_total;
  out.delta_deletes = delta.deletes_total;
  out.delta_live_rows = delta.live_insert_rows;
  out.delta_live_tombstones = delta.live_tombstones;
  out.compactions = delta.compactions;
  if (wal_ != nullptr) {
    const storage::WalStats wal = wal_->stats();
    out.wal_appends = wal.appends;
    out.wal_fsyncs = wal.fsyncs;
    out.wal_replayed_ops = wal_replayed_ops_;
    out.wal_truncated_bytes = wal_truncated_bytes_;
  }
  out.auto_compactions = auto_compactions_.load(std::memory_order_relaxed);
  out.engine_rebuilds = engine_rebuilds_.load(std::memory_order_relaxed);
  out.engine_rebases = engine_rebases_.load(std::memory_order_relaxed);
  return out;
}

StatusOr<uint64_t> Server::SwapSnapshot(const std::string& path) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  auto snapshot = storage::Snapshot::Open(path);
  if (!snapshot.ok()) return snapshot.status();
  std::shared_ptr<const storage::ShardedStore> fresh =
      (*snapshot)->shared_store();
  snapshot->reset();  // safe: `fresh` pins the new mapping

  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    generation = ++generation_;
    // Deltas reference the replaced base's documents and drop with it;
    // with a WAL the log rotates to a segment pinned to `path`, so a
    // crash after the swap recovers the new base, not the old writes.
    mutable_store_->ResetBase(std::move(fresh), path);
    // The old generation's shared_ptr just dropped; its mapping
    // unmaps when the last in-flight query or connection engine
    // releases its reference. That IS the drain.
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return generation;
}

StatusOr<uint64_t> Server::Compact(const std::string& path,
                                   uint64_t* compacted_seq) {
  return CompactWith(path, compacted_seq, pool_.get());
}

StatusOr<uint64_t> Server::CompactWith(const std::string& path,
                                       uint64_t* compacted_seq,
                                       ThreadPool* merge_pool) {
  // One base replacement at a time; writes and queries proceed — the
  // freeze inside CompactToSnapshot is the only synchronization they
  // see, and writes landing after it survive the rebase.
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::string target = path;
  if (target.empty()) {
    target = boot_snapshot_path_ + ".gen" + std::to_string(generation() + 1);
  }
  uint64_t frozen_seq = 0;
  STANDOFF_RETURN_IF_ERROR(
      mutable_store_->CompactToSnapshot(target, merge_pool, &frozen_seq));
  auto snapshot = storage::Snapshot::Open(target);
  if (!snapshot.ok()) return snapshot.status();
  std::shared_ptr<const storage::ShardedStore> fresh =
      (*snapshot)->shared_store();
  snapshot->reset();

  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    generation = ++generation_;
    // SaveSnapshot's atomic rename already landed, so recording
    // `target` in the rotated WAL segment is safe: a crash from here
    // on recovers the compacted base + the seq > frozen_seq tail.
    mutable_store_->AdoptCompacted(frozen_seq, std::move(fresh), target);
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  *compacted_seq = frozen_seq;
  return generation;
}

void Server::AcceptLoop() {
  for (;;) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;  // Stop() retired the socket
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed by Stop(), or fatal
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (live_connections_.fetch_add(1, std::memory_order_acquire) >=
        static_cast<int64_t>(config_.max_connections)) {
      live_connections_.fetch_sub(1, std::memory_order_release);
      WriteFrame(fd, MsgType::kError,
                 ErrorBody(Status::Unavailable("connection limit reached")));
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::vector<std::thread> exited;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const std::thread::id id : finished_threads_) {
        for (size_t i = 0; i < conn_threads_.size(); ++i) {
          if (conn_threads_[i].get_id() == id) {
            exited.push_back(std::move(conn_threads_[i]));
            conn_threads_[i] = std::move(conn_threads_.back());
            conn_threads_.pop_back();
            break;
          }
        }
      }
      finished_threads_.clear();
      live_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { ConnectionLoop(fd); });
    }
    for (std::thread& thread : exited) thread.join();
  }
}

void Server::ConnectionLoop(int fd) {
  ConnState conn;
  FrameReader reader(fd);
  for (;;) {
    auto frame = reader.Next();
    if (!frame.ok()) {
      // Protocol violations (oversized/zero length prefix) get a
      // best-effort diagnostic; clean closes and truncated frames
      // just end the connection. Either way: close, never crash.
      if (frame.status().code() == StatusCode::kInvalidArgument) {
        WriteFrame(fd, MsgType::kError, ErrorBody(frame.status()));
      }
      break;
    }
    bool alive = true;
    switch (frame->type) {
      case MsgType::kPingReq:
        alive = WriteFrame(fd, MsgType::kPong, frame->body).ok();
        break;
      case MsgType::kStatsReq:
        SendStats(fd);
        break;
      case MsgType::kSwapReq: {
        auto generation = SwapSnapshot(std::string(frame->body));
        if (generation.ok()) {
          std::string body;
          AppendU64(&body, *generation);
          alive = WriteFrame(fd, MsgType::kSwapOk, body).ok();
        } else {
          alive =
              WriteFrame(fd, MsgType::kError, ErrorBody(generation.status()))
                  .ok();
        }
        break;
      }
      case MsgType::kQueryReq:
        alive = HandleQuery(fd, &conn, frame->body);
        break;
      case MsgType::kHelloReq: {
        std::string body;
        AppendU32(&body, kProtocolVersion);
        alive = WriteFrame(fd, MsgType::kHelloRep, body).ok();
        break;
      }
      case MsgType::kInsertRegionReq:
        alive = HandleInsert(fd, frame->body);
        break;
      case MsgType::kDeleteRegionReq:
        alive = HandleDelete(fd, frame->body);
        break;
      case MsgType::kCompactReq:
        alive = HandleCompact(fd, frame->body);
        break;
      default:
        alive = WriteFrame(fd, MsgType::kError,
                           ErrorBody(Status::Invalid(
                               "unknown request type")))
                    .ok();
        break;
    }
    if (!alive) break;
  }
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (size_t i = 0; i < live_fds_.size(); ++i) {
      if (live_fds_[i] == fd) {
        live_fds_.erase(live_fds_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
    finished_threads_.push_back(std::this_thread::get_id());
  }
  live_connections_.fetch_sub(1, std::memory_order_release);
}

bool Server::HandleQuery(int fd, ConnState* conn, std::string_view text) {
  auto parsed = ParseQueryText(text);
  if (!parsed.ok()) {
    queries_error_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, MsgType::kError, ErrorBody(parsed.status())).ok();
  }

  if (!gate_.TryEnter()) {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, MsgType::kBusy, "").ok();
  }

  // Pin the generation and frozen view this query runs against: the
  // view is consistent for the whole query no matter what writers,
  // compaction, or swaps do meanwhile. MutableStore hands out the SAME
  // view object until a write, swap or compaction replaces it, and the
  // connection's reference keeps the old one alive, so pointer
  // equality means "nothing changed" and the warm engine is reused
  // as it is.
  uint64_t generation = 0;
  std::shared_ptr<const storage::DeltaStoreView> view;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    generation = generation_;
    view = mutable_store_->View();
  }
  if (conn->view != view) {
    if (conn->engine && conn->view->base() == view->base()) {
      // Only delta runs differ (another write): carry the engine over,
      // dropping just what the writes in between could have changed.
      // Rebase reads the old view, which the connection still pins.
      conn->engine->Rebase(view.get());
      engine_rebases_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // First query ever, or after a swap or compaction (a new base):
      // build a fresh engine over the new view.
      conn->engine = std::make_unique<xquery::Engine>(view.get());
      conn->engine->mutable_options()->timeout_seconds =
          config_.query_timeout_seconds;
      engine_rebuilds_.fetch_add(1, std::memory_order_relaxed);
    }
    // The old view's reference drops here — this is where an idle
    // connection releases the previous mapping.
    conn->view = std::move(view);
  }

  // Evaluate and serialize on this thread while holding the slot.
  Timer timer;
  Status status;
  uint64_t rows = 0;
  const bool is_chain = parsed->kind == ParsedQuery::Kind::kChain;
  conn->payload.clear();
  xquery::Engine* engine = conn->engine.get();
  // Per-query deadline: the tighter of the request's deadline_ms and the
  // server's configured timeout, restored afterwards (frames are serial
  // per connection, so the engine is ours).
  double& timeout = engine->mutable_options()->timeout_seconds;
  const double configured = config_.query_timeout_seconds;
  if (parsed->deadline_seconds > 0) {
    timeout = configured > 0 ? std::min(configured, parsed->deadline_seconds)
                             : parsed->deadline_seconds;
  }
  if (is_chain) {
    // EvaluateChain rejects a document the view does not have.
    auto chain = engine->EvaluateChain(parsed->chain);
    if (chain.ok()) {
      SerializeChain(*chain, &conn->payload);
      rows = chain->matches.size();
      subplan_hits_.fetch_add(chain->stats.memo_hits,
                              std::memory_order_relaxed);
      subplan_misses_.fetch_add(chain->stats.memo_misses,
                                std::memory_order_relaxed);
      subplan_evictions_.fetch_add(chain->stats.memo_evictions,
                                   std::memory_order_relaxed);
    } else {
      status = chain.status();
    }
  } else {
    auto flwor = engine->Evaluate(parsed->flwor);
    if (flwor.ok()) {
      SerializeFlwor(*flwor, &conn->payload);
      rows = flwor->items.size();
    } else {
      status = flwor.status();
    }
  }
  timeout = configured;
  const double seconds = timer.ElapsedSeconds();
  // The slot is free before any frame goes out: a client that reads
  // slowly does not hold it.
  gate_.Leave();

  if (!status.ok()) {
    queries_error_.fetch_add(1, std::memory_order_relaxed);
    return WriteFrame(fd, MsgType::kError, ErrorBody(status)).ok();
  }
  queries_ok_.fetch_add(1, std::memory_order_relaxed);

  // The whole reply in one write: header, the payload in kChunkBytes
  // slices (borrowed, not copied), end.
  const std::string_view payload = conn->payload;
  char fields[8 + 1 + 8 + 8];
  StoreU64(fields, generation);
  fields[8] = static_cast<char>(is_chain ? kKindChain : kKindFlwor);
  StoreU64(fields + 9, payload.size());
  StoreU64(fields + 17, rows);
  FrameWriter& writer = conn->writer;
  writer.AddCopied(MsgType::kResultHeader, {fields, sizeof fields});
  for (size_t off = 0; off < payload.size(); off += kChunkBytes) {
    writer.AddBorrowed(MsgType::kResultChunk,
                       payload.substr(off, kChunkBytes));
  }
  StoreU64(fields, static_cast<uint64_t>(seconds * 1e6));
  writer.AddCopied(MsgType::kResultEnd, {fields, 8});
  return writer.Flush(fd).ok();
}

bool Server::HandleInsert(int fd, std::string_view body) {
  size_t off = 0;
  auto doc = TakeU32(body, &off);
  auto id = TakeU32(body, &off);
  auto start = TakeU64(body, &off);
  auto end = TakeU64(body, &off);
  if (!doc.ok() || !id.ok() || !start.ok() || !end.ok()) {
    return WriteFrame(fd, MsgType::kError,
                      ErrorBody(Status::Invalid("short insert frame")))
        .ok();
  }
  auto fingerprint = WriteFingerprint(body.substr(off));
  if (!fingerprint.ok()) {
    return WriteFrame(fd, MsgType::kError, ErrorBody(fingerprint.status()))
        .ok();
  }
  auto seq = mutable_store_->InsertRegion(
      *doc, *fingerprint, static_cast<int64_t>(*start),
      static_cast<int64_t>(*end), *id);
  if (!seq.ok()) {
    return WriteFrame(fd, MsgType::kError, ErrorBody(seq.status())).ok();
  }
  std::string reply;
  AppendU64(&reply, *seq);
  return WriteFrame(fd, MsgType::kWriteOk, reply).ok();
}

bool Server::HandleDelete(int fd, std::string_view body) {
  size_t off = 0;
  auto doc = TakeU32(body, &off);
  auto id = TakeU32(body, &off);
  if (!doc.ok() || !id.ok()) {
    return WriteFrame(fd, MsgType::kError,
                      ErrorBody(Status::Invalid("short delete frame")))
        .ok();
  }
  auto fingerprint = WriteFingerprint(body.substr(off));
  if (!fingerprint.ok()) {
    return WriteFrame(fd, MsgType::kError, ErrorBody(fingerprint.status()))
        .ok();
  }
  auto seq = mutable_store_->DeleteRegions(*doc, *fingerprint, *id);
  if (!seq.ok()) {
    return WriteFrame(fd, MsgType::kError, ErrorBody(seq.status())).ok();
  }
  std::string reply;
  AppendU64(&reply, *seq);
  return WriteFrame(fd, MsgType::kWriteOk, reply).ok();
}

bool Server::HandleCompact(int fd, std::string_view body) {
  // Runs on the connection thread: frames on THIS connection stall for
  // the duration (compaction is an admin operation), while every other
  // connection keeps reading and writing against the frozen state.
  uint64_t compacted_seq = 0;
  auto generation = Compact(std::string(body), &compacted_seq);
  if (!generation.ok()) {
    return WriteFrame(fd, MsgType::kError, ErrorBody(generation.status()))
        .ok();
  }
  std::string reply;
  AppendU64(&reply, *generation);
  AppendU64(&reply, compacted_seq);
  return WriteFrame(fd, MsgType::kCompactOk, reply).ok();
}

void Server::SendStats(int fd) {
  const ServerStats stats = this->stats();
  std::string body;
  for (const ServerStatsField& field : kServerStatsFields) {
    AppendU64(&body, stats.*field.value);
  }
  WriteFrame(fd, MsgType::kStatsRep, body);
}

void Server::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Wake the accept loop: closing the listen fd fails the blocking
  // accept() with EBADF/ECONNABORTED.
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Wake every connection's blocking read. The fds themselves are
  // closed by their owning connection threads.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // No new threads can appear (accept loop is gone); join them all.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    threads.swap(conn_threads_);
    finished_threads_.clear();
  }
  for (auto& thread : threads) {
    if (thread.joinable()) thread.join();
  }
  pool_.reset();  // drains any still-queued tasks deterministically
}

}  // namespace server
}  // namespace standoff
