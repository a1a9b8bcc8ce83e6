// The server's wire protocol: length-prefixed binary frames over a
// stream socket.
//
//   [u32 LE payload length] [u8 message type] [body ...]
//
// The length counts the type byte plus the body and is capped at
// kMaxFrameBytes (1 MiB) — a peer announcing more is a protocol error
// and the connection is dropped, so a hostile or corrupt length prefix
// can never drive an allocation. All integers are little-endian; there
// is no alignment or padding anywhere in a frame.
//
// How the bytes move. A reply is one write: FrameWriter gathers every
// frame of it (a result's header, its chunks and its end frame) into
// one sendmsg whose iovecs point at the writer's own prefix bytes and
// at the caller's body bytes, which are not copied; WriteFrame is the
// one-frame case. Readers buffer: FrameReader parses every complete
// frame out of each recv, so a small reply costs the peer one recv
// rather than three per frame. Neither changes a byte on the wire —
// the stream is exactly the frames back to back, as before, and any
// peer that speaks the frames above interoperates.
//
// Request types (client -> server):
//   kQueryReq         body = query text (see server/query_text.h)
//   kPingReq          body echoed back verbatim in kPong
//   kStatsReq         empty body
//   kSwapReq          body = snapshot path to hot-swap to
//   kHelloReq         u32 client protocol version; answered by
//                     kHelloRep. Optional — a client that never says
//                     hello (protocol 1) speaks the read-only subset
//                     unchanged.
//   kInsertRegionReq  u32 doc, u32 id, u64 region start, u64 region
//                     end (both two's-complement int64), rest = config
//                     fingerprint ("start|end|type"; empty = the
//                     default config). Appends a region to the delta
//                     layer; answered by kWriteOk or kError.
//   kDeleteRegionReq  u32 doc, u32 id, rest = config fingerprint as
//                     above. Deletes every region of the id (pending
//                     inserts die, base rows are tombstoned); answered
//                     by kWriteOk or kError.
//   kCompactReq       body = target snapshot path (empty = a
//                     server-chosen sibling of the boot snapshot).
//                     Rewrites (base ⊎ delta) into a new snapshot
//                     generation, hot-swaps to it, and rebases the
//                     pending deltas; answered by kCompactOk or
//                     kError.
//
// Response types (server -> client):
//   kResultHeader  u64 generation, u8 result kind (0 chain, 1 flwor),
//                  u64 total payload bytes, u64 row count
//   kResultChunk   raw payload bytes (split at kChunkBytes)
//   kResultEnd     u64 server-side execution micros
//   kPong          echo of the ping body
//   kStatsRep      u64 generation, queries_ok, queries_rejected,
//                  queries_error, connections_accepted, swaps,
//                  subplan_hits, subplan_misses, subplan_evictions,
//                  delta_inserts, delta_deletes, delta_live_rows,
//                  delta_live_tombstones, compactions, wal_appends,
//                  wal_fsyncs, wal_replayed_ops, wal_truncated_bytes,
//                  auto_compactions, engine_rebuilds,
//                  engine_rebases (21 fields, kServerStatsFields
//                  in server.h). Fields are
//                  parsed by offset, so versions only ever APPEND
//                  fields: an old client reads its prefix and ignores
//                  the rest, a new client treats missing tail fields
//                  as zero (old server).
//   kSwapOk        u64 new generation
//   kHelloRep      u32 server protocol version (kProtocolVersion)
//   kWriteOk       u64 sequence number the write was applied at
//   kCompactOk     u64 new generation, u64 compacted sequence (every
//                  write at or below it is now in the base snapshot)
//   kError         u8 status code, rest = message (query failed;
//                  connection stays usable)
//   kBusy          empty body: admission queue full, retry later
//
// Versioning. kProtocolVersion is 2 (version 1 = the read-only
// protocol above without hello/write/compact frames). Compatibility is
// by construction rather than negotiation: an old client simply never
// sends the new request types, and an old server answers them with
// kError("unknown request type") — which is exactly what Client::Hello
// surfaces, so a new client can probe capability with one round trip.
#ifndef STANDOFF_SERVER_WIRE_H_
#define STANDOFF_SERVER_WIRE_H_

#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/le_bytes.h"
#include "common/status.h"

namespace standoff {
namespace server {

inline constexpr uint32_t kMaxFrameBytes = 1u << 20;
inline constexpr size_t kChunkBytes = 64u << 10;

/// See the versioning note in the file comment.
inline constexpr uint32_t kProtocolVersion = 2;

enum class MsgType : uint8_t {
  kQueryReq = 0x01,
  kPingReq = 0x02,
  kStatsReq = 0x03,
  kSwapReq = 0x04,
  kHelloReq = 0x05,
  kInsertRegionReq = 0x06,
  kDeleteRegionReq = 0x07,
  kCompactReq = 0x08,
  kResultHeader = 0x81,
  kResultChunk = 0x82,
  kResultEnd = 0x83,
  kPong = 0x84,
  kStatsRep = 0x85,
  kSwapOk = 0x86,
  kHelloRep = 0x87,
  kWriteOk = 0x88,
  kCompactOk = 0x89,
  kError = 0xE0,
  kBusy = 0xE1,
};

/// Bytes before a frame's body: the u32 length and the u8 type.
inline constexpr size_t kFramePrefixBytes = 5;

/// One frame as a reader hands it out: the body is a view into the
/// reader's buffer, valid until the reader's next call.
struct Frame {
  MsgType type = MsgType::kError;
  std::string_view body;
};

/// Frame fields are little-endian (common/le_bytes.h) in both
/// directions.
using standoff::AppendU32;
using standoff::AppendU64;
/// Reads from body at *offset, advancing it; Invalid on short body.
StatusOr<uint32_t> TakeU32(std::string_view body, size_t* offset);
StatusOr<uint64_t> TakeU64(std::string_view body, size_t* offset);

/// Queues the frames of one reply and writes them with one gathered
/// sendmsg (more only on a short write, or past IOV_MAX iovecs).
/// Short writes and EINTR are retried; EPIPE (peer vanished
/// mid-stream) and other socket errors come back as kInternal. SIGPIPE
/// is suppressed (MSG_NOSIGNAL). Keep one per connection: its buffers
/// keep their capacity across replies.
class FrameWriter {
 public:
  /// Queues a frame whose body is copied into the writer — for small
  /// fixed-size bodies such as a result header or end frame.
  void AddCopied(MsgType type, std::string_view body);
  /// Queues a frame whose body is NOT copied: it must stay alive and
  /// unchanged until Flush returns.
  void AddBorrowed(MsgType type, std::string_view body);
  /// Writes every queued frame, then empties the queue (also on error).
  /// A body over kMaxFrameBytes fails the whole reply before any byte
  /// is sent.
  Status Flush(int fd);

 private:
  /// A run of bytes to send: the writer's own (`data` null, `offset`
  /// into owned_) or a caller's body (`data`).
  struct Piece {
    const char* data;
    size_t offset;
    size_t size;
  };
  void AddPrefix(MsgType type, size_t body_size);

  std::string owned_;  // prefixes and copied bodies, back to back
  std::vector<Piece> pieces_;
  std::vector<iovec> iov_;
  bool oversized_ = false;
};

/// Writes one complete frame: the one-frame case of FrameWriter (the
/// same prefix encoding and send loop, prefix and body gathered in one
/// sendmsg, the body not copied).
Status WriteFrame(int fd, MsgType type, std::string_view body);

/// Reads frames from one socket through a per-connection buffer: each
/// recv fills as much of it as the peer has sent, and every complete
/// frame in it is handed out without another syscall. The buffer
/// starts at kInitialBytes and grows only to hold the frame in flight
/// (so never past 4 + kMaxFrameBytes); after such a frame it shrinks
/// back, so an idle connection pins a few KiB.
///
/// Error taxonomy, which the server maps to "close quietly" vs
/// "protocol error":
///   kNotFound         peer closed cleanly between frames
///   kInvalidArgument  oversized or zero-length length prefix, rejected
///                     before any allocation
///   kInternal         truncated frame (EOF mid-frame) or socket error
class FrameReader {
 public:
  static constexpr size_t kInitialBytes = 4u << 10;

  explicit FrameReader(int fd);
  FrameReader(const FrameReader&) = delete;
  FrameReader& operator=(const FrameReader&) = delete;

  /// The next frame. Its body view stays valid until the next call.
  StatusOr<Frame> Next();

  /// Bytes of buffer the reader holds now.
  size_t capacity() const { return capacity_; }

 private:
  /// Makes room for `need` bytes from begin_: moves the buffered bytes
  /// to the front, growing the buffer when `need` exceeds it.
  void Reserve(size_t need);

  int fd_;
  std::unique_ptr<char[]> buf_;
  size_t capacity_ = 0;
  size_t begin_ = 0;  // first byte not yet handed out
  size_t end_ = 0;    // one past the last byte received
};

}  // namespace server
}  // namespace standoff

#endif  // STANDOFF_SERVER_WIRE_H_
