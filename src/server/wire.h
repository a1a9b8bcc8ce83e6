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

#include <cstdint>
#include <string>
#include <string_view>

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

struct Frame {
  MsgType type = MsgType::kError;
  std::string body;
};

/// Little-endian append/read helpers shared by both frame directions.
void AppendU32(std::string* out, uint32_t value);
void AppendU64(std::string* out, uint64_t value);
/// Reads from body at *offset, advancing it; Invalid on short body.
StatusOr<uint32_t> TakeU32(std::string_view body, size_t* offset);
StatusOr<uint64_t> TakeU64(std::string_view body, size_t* offset);

/// Writes one complete frame. Short writes are retried; EPIPE (peer
/// vanished mid-stream) and other socket errors come back as kInternal.
/// SIGPIPE is suppressed (MSG_NOSIGNAL).
Status WriteFrame(int fd, MsgType type, std::string_view body);

/// Reads one complete frame. Error taxonomy, which the server maps to
/// "close quietly" vs "protocol error":
///   kNotFound         peer closed cleanly between frames
///   kInvalidArgument  oversized or zero-length length prefix
///   kInternal         truncated frame (EOF mid-frame) or socket error
StatusOr<Frame> ReadFrame(int fd);

}  // namespace server
}  // namespace standoff

#endif  // STANDOFF_SERVER_WIRE_H_
