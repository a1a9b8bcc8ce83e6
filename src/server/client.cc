#include "server/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/rng.h"
#include "common/timer.h"

namespace standoff {
namespace server {

namespace {

/// Decodes a kError body (u8 code + message) into its Status.
Status DecodeError(std::string_view body) {
  if (body.empty()) return Status::Internal("empty error frame");
  const auto code = static_cast<StatusCode>(static_cast<uint8_t>(body[0]));
  return Status(code, std::string(body.substr(1)));
}

/// Pulls `deadline_ms=<n>` out of the query text (same syntax the
/// server's ParseQueryText accepts) so the retry loop can treat it as
/// the total budget. 0 = no deadline.
double DeadlineSecondsOf(const std::string& text) {
  const size_t pos = text.find("deadline_ms=");
  if (pos == std::string::npos) return 0;
  const char* digits = text.c_str() + pos + 12;
  char* end = nullptr;
  const double ms = std::strtod(digits, &end);
  return end != digits && ms > 0 ? ms / 1000.0 : 0;
}

}  // namespace

StatusOr<std::unique_ptr<Client>> Client::Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const Status st =
        Status::Unavailable(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::unique_ptr<Client>(new Client(fd));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<Frame> Client::Call(MsgType type, std::string_view body) {
  STANDOFF_RETURN_IF_ERROR(WriteFrame(fd_, type, body));
  return reader_.Next();
}

Status Client::Ping() {
  auto reply = Call(MsgType::kPingReq, "ping");
  if (!reply.ok()) return reply.status();
  if (reply->type != MsgType::kPong || reply->body != "ping") {
    return Status::Internal("bad pong");
  }
  return Status::OK();
}

StatusOr<QueryReply> Client::Query(const std::string& text) {
  auto first = Call(MsgType::kQueryReq, text);
  if (!first.ok()) return first.status();
  QueryReply out;
  if (first->type == MsgType::kBusy) {
    out.busy = true;
    return out;
  }
  if (first->type == MsgType::kError) return DecodeError(first->body);
  if (first->type != MsgType::kResultHeader) {
    return Status::Internal("expected result header, got type " +
                            std::to_string(static_cast<int>(first->type)));
  }
  size_t off = 0;
  auto generation = TakeU64(first->body, &off);
  if (!generation.ok()) return generation.status();
  if (first->body.size() < off + 1) {
    return Status::Internal("result header too short");
  }
  out.generation = *generation;
  out.kind = static_cast<uint8_t>(first->body[off++]);
  auto payload_bytes = TakeU64(first->body, &off);
  if (!payload_bytes.ok()) return payload_bytes.status();
  auto rows = TakeU64(first->body, &off);
  if (!rows.ok()) return rows.status();
  out.rows = *rows;

  // The announced size is the peer's claim: reserve no more than one
  // chunk up front and let the payload grow with what actually arrives.
  out.payload.reserve(std::min<uint64_t>(*payload_bytes, kChunkBytes));
  for (;;) {
    auto frame = reader_.Next();
    if (!frame.ok()) return frame.status();
    if (frame->type == MsgType::kResultChunk) {
      if (frame->body.size() > *payload_bytes - out.payload.size()) {
        return Status::Internal("result chunks exceed announced size");
      }
      out.payload.append(frame->body);
      continue;
    }
    if (frame->type == MsgType::kResultEnd) {
      size_t end_off = 0;
      auto micros = TakeU64(frame->body, &end_off);
      if (!micros.ok()) return micros.status();
      out.server_micros = *micros;
      break;
    }
    return Status::Internal("unexpected frame inside result stream");
  }
  if (out.payload.size() != *payload_bytes) {
    return Status::Internal("result stream ended short");
  }
  return out;
}

StatusOr<QueryReply> Client::QueryWithRetry(const std::string& text,
                                            const QueryRetryOptions& options) {
  const double deadline_seconds = DeadlineSecondsOf(text);
  Timer timer;
  Rng rng(options.jitter_seed != 0
              ? options.jitter_seed
              : 0x9E3779B97F4A7C15ULL ^ static_cast<uint64_t>(fd_));
  double backoff_ms = options.initial_backoff_ms;
  const int attempts = std::max(1, options.max_attempts);
  for (int attempt = 1;; ++attempt) {
    auto reply = Query(text);
    if (!reply.ok()) return reply;  // hard error: no retry
    reply->attempts = attempt;
    if (!reply->busy || attempt >= attempts) return reply;
    // Full jitter in [backoff/2, backoff): decorrelates a thundering
    // herd of clients that all got rejected by the same burst.
    double sleep_ms = backoff_ms * (0.5 + 0.5 * rng.NextDouble());
    if (deadline_seconds > 0) {
      const double remaining_ms =
          (deadline_seconds - timer.ElapsedSeconds()) * 1000.0;
      if (remaining_ms <= sleep_ms) return reply;  // budget spent: stay busy
    }
    ::usleep(static_cast<useconds_t>(sleep_ms * 1000.0));
    backoff_ms = std::min(backoff_ms * 2.0, options.max_backoff_ms);
  }
}

StatusOr<uint64_t> Client::Swap(const std::string& path) {
  auto reply = Call(MsgType::kSwapReq, path);
  if (!reply.ok()) return reply.status();
  if (reply->type == MsgType::kError) return DecodeError(reply->body);
  if (reply->type != MsgType::kSwapOk) {
    return Status::Internal("expected kSwapOk");
  }
  size_t off = 0;
  return TakeU64(reply->body, &off);
}

StatusOr<uint32_t> Client::Hello() {
  char version[4];
  StoreU32(version, kProtocolVersion);
  auto reply = Call(MsgType::kHelloReq, {version, sizeof version});
  if (!reply.ok()) return reply.status();
  if (reply->type == MsgType::kError) return DecodeError(reply->body);
  if (reply->type != MsgType::kHelloRep) {
    return Status::Internal("expected kHelloRep");
  }
  size_t off = 0;
  return TakeU32(reply->body, &off);
}

StatusOr<uint64_t> Client::CallWrite(MsgType type, std::string_view body) {
  auto reply = Call(type, body);
  if (!reply.ok()) return reply.status();
  if (reply->type == MsgType::kError) return DecodeError(reply->body);
  if (reply->type != MsgType::kWriteOk) {
    return Status::Internal("expected kWriteOk");
  }
  size_t off = 0;
  return TakeU64(reply->body, &off);
}

StatusOr<uint64_t> Client::InsertRegion(uint32_t doc, uint32_t id,
                                        int64_t start, int64_t end,
                                        const std::string& fingerprint) {
  std::string body;
  AppendU32(&body, doc);
  AppendU32(&body, id);
  AppendU64(&body, static_cast<uint64_t>(start));
  AppendU64(&body, static_cast<uint64_t>(end));
  body.append(fingerprint);
  return CallWrite(MsgType::kInsertRegionReq, body);
}

StatusOr<uint64_t> Client::DeleteRegions(uint32_t doc, uint32_t id,
                                         const std::string& fingerprint) {
  std::string body;
  AppendU32(&body, doc);
  AppendU32(&body, id);
  body.append(fingerprint);
  return CallWrite(MsgType::kDeleteRegionReq, body);
}

StatusOr<Client::CompactReply> Client::Compact(const std::string& path) {
  auto reply = Call(MsgType::kCompactReq, path);
  if (!reply.ok()) return reply.status();
  if (reply->type == MsgType::kError) return DecodeError(reply->body);
  if (reply->type != MsgType::kCompactOk) {
    return Status::Internal("expected kCompactOk");
  }
  size_t off = 0;
  CompactReply out;
  auto generation = TakeU64(reply->body, &off);
  if (!generation.ok()) return generation.status();
  auto seq = TakeU64(reply->body, &off);
  if (!seq.ok()) return seq.status();
  out.generation = *generation;
  out.compacted_seq = *seq;
  return out;
}

StatusOr<ServerStats> Client::Stats() {
  auto reply = Call(MsgType::kStatsReq, "");
  if (!reply.ok()) return reply.status();
  if (reply->type != MsgType::kStatsRep) {
    return Status::Internal("expected kStatsRep");
  }
  // Fields the body does not reach (an older server's shorter reply)
  // stay zero.
  size_t off = 0;
  ServerStats stats;
  for (const ServerStatsField& field : kServerStatsFields) {
    if (off + 8 > reply->body.size()) break;
    auto value = TakeU64(reply->body, &off);
    if (!value.ok()) return value.status();
    stats.*field.value = *value;
  }
  return stats;
}

}  // namespace server
}  // namespace standoff
