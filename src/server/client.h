// Blocking client for the server's wire protocol: one TCP connection,
// one request at a time (matching the server's serial-per-connection
// framing). Used by the load generator, the server tests, and the CLI.
#ifndef STANDOFF_SERVER_CLIENT_H_
#define STANDOFF_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "server/server.h"
#include "server/wire.h"

namespace standoff {
namespace server {

/// A complete query exchange. `busy` is the backpressure outcome: the
/// server refused admission (kBusy) — not an error, retry later.
struct QueryReply {
  bool busy = false;
  uint64_t generation = 0;
  uint8_t kind = 0;  // 0 chain, 1 flwor
  uint64_t rows = 0;
  std::string payload;       // the chunk bodies, appended in order
  uint64_t server_micros = 0;
  /// Query attempts consumed (always 1 for plain Query; >= 1 for
  /// QueryWithRetry, counting the busy rounds).
  int attempts = 1;
};

/// Backoff policy for Client::QueryWithRetry.
struct QueryRetryOptions {
  /// Total Query attempts (first try included). 1 = no retry.
  int max_attempts = 5;
  double initial_backoff_ms = 1.0;
  double max_backoff_ms = 50.0;
  /// Jitter seed; 0 derives one from the socket fd.
  uint64_t jitter_seed = 0;
};

class Client {
 public:
  /// Connects to 127.0.0.1:port.
  static StatusOr<std::unique_ptr<Client>> Connect(uint16_t port);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Round-trips a ping; the body must echo back.
  Status Ping();

  /// Runs one query. Query failures the server reports (parse errors,
  /// bad doc ids, engine errors) come back as the error Status with the
  /// server's code and message; kBusy comes back OK with busy=true.
  StatusOr<QueryReply> Query(const std::string& text);

  /// Query, but busy-backpressure rejections retry with capped
  /// exponential backoff + jitter instead of surfacing immediately —
  /// transient admission rejects stop looking like failures. Hard
  /// errors return at once. If the query text carries `deadline_ms=`,
  /// the retry loop honors it as a total budget: no sleep ever extends
  /// past the deadline. When every attempt came back busy, the reply
  /// has busy=true (still not an error) with `attempts` filled in.
  StatusOr<QueryReply> QueryWithRetry(
      const std::string& text,
      const QueryRetryOptions& options = QueryRetryOptions());

  /// Asks the server to hot-swap to `path`; returns the new generation.
  StatusOr<uint64_t> Swap(const std::string& path);

  /// Protocol-version exchange: returns the server's version. A
  /// pre-write server answers kError("unknown request type") — that
  /// status IS the capability probe for the write frames below.
  StatusOr<uint32_t> Hello();

  /// Appends a region for element `id` of `doc` to the server's delta
  /// layer; empty fingerprint = the default standoff config. Returns
  /// the sequence number the write was applied at.
  StatusOr<uint64_t> InsertRegion(uint32_t doc, uint32_t id, int64_t start,
                                  int64_t end,
                                  const std::string& fingerprint = "");

  /// Deletes every region of `id` under the config; same conventions.
  StatusOr<uint64_t> DeleteRegions(uint32_t doc, uint32_t id,
                                   const std::string& fingerprint = "");

  struct CompactReply {
    uint64_t generation = 0;     // the compacted snapshot's generation
    uint64_t compacted_seq = 0;  // writes <= this are now in the base
  };
  /// Compacts (base ⊎ delta) into a new snapshot generation; empty
  /// path lets the server choose a sibling of its boot snapshot.
  StatusOr<CompactReply> Compact(const std::string& path = "");

  /// Reads the server's counters. Tail fields (delta/compaction, WAL,
  /// auto-compaction) are zero when the server predates them — its
  /// kStatsRep body simply ends earlier.
  StatusOr<ServerStats> Stats();

  /// The raw socket, for tests that need to write malformed bytes.
  int fd() const { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd), reader_(fd) {}
  /// One round trip: sends the request frame, reads the first reply
  /// frame (a view into reader_, valid until the next read).
  StatusOr<Frame> Call(MsgType type, std::string_view body);
  /// Shared tail of both write RPCs: expect kWriteOk.
  StatusOr<uint64_t> CallWrite(MsgType type, std::string_view body);

  int fd_;
  FrameReader reader_;
};

}  // namespace server
}  // namespace standoff

#endif  // STANDOFF_SERVER_CLIENT_H_
