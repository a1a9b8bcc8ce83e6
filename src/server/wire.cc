#include "server/wire.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>

namespace standoff {
namespace server {

namespace {

#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

/// recv() exactly `len` bytes. Returns the byte count actually read:
/// `len` on success, 0 on immediate clean EOF, a short count on EOF
/// mid-read, or -1 on a socket error.
ssize_t RecvAll(int fd, void* buf, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::recv(fd, static_cast<char*>(buf) + done, len - done, 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

}  // namespace

void AppendU32(std::string* out, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

StatusOr<uint32_t> TakeU32(std::string_view body, size_t* offset) {
  if (body.size() < *offset || body.size() - *offset < 4) {
    return Status::Invalid("frame body too short for u32");
  }
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(
                 static_cast<uint8_t>(body[*offset + static_cast<size_t>(i)]))
             << (8 * i);
  }
  *offset += 4;
  return value;
}

StatusOr<uint64_t> TakeU64(std::string_view body, size_t* offset) {
  if (body.size() < *offset || body.size() - *offset < 8) {
    return Status::Invalid("frame body too short for u64");
  }
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(
                 static_cast<uint8_t>(body[*offset + static_cast<size_t>(i)]))
             << (8 * i);
  }
  *offset += 8;
  return value;
}

Status WriteFrame(int fd, MsgType type, std::string_view body) {
  if (body.size() + 1 > kMaxFrameBytes) {
    return Status::Invalid("frame body exceeds kMaxFrameBytes");
  }
  std::string frame;
  frame.reserve(4 + 1 + body.size());
  AppendU32(&frame, static_cast<uint32_t>(body.size() + 1));
  frame.push_back(static_cast<char>(type));
  frame.append(body);

  size_t done = 0;
  while (done < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + done, frame.size() - done, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("send: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<Frame> ReadFrame(int fd) {
  uint8_t prefix[4];
  const ssize_t got = RecvAll(fd, prefix, sizeof prefix);
  if (got == 0) return Status::NotFound("connection closed");
  if (got < 0) {
    return Status::Internal(std::string("recv: ") + std::strerror(errno));
  }
  if (got < static_cast<ssize_t>(sizeof prefix)) {
    return Status::Internal("truncated frame: EOF inside length prefix");
  }
  const uint32_t length = static_cast<uint32_t>(prefix[0]) |
                          static_cast<uint32_t>(prefix[1]) << 8 |
                          static_cast<uint32_t>(prefix[2]) << 16 |
                          static_cast<uint32_t>(prefix[3]) << 24;
  if (length == 0) return Status::Invalid("zero-length frame");
  if (length > kMaxFrameBytes) {
    return Status::Invalid("frame length " + std::to_string(length) +
                           " exceeds cap " + std::to_string(kMaxFrameBytes));
  }

  // The type byte, then the body straight into its final string.
  Frame frame;
  frame.body.resize(length - 1);
  uint8_t type = 0;
  const ssize_t type_got = RecvAll(fd, &type, 1);
  const ssize_t body_got =
      type_got == 1 ? RecvAll(fd, frame.body.data(), frame.body.size()) : 0;
  if (type_got < 0 || body_got < 0) {
    return Status::Internal(std::string("recv: ") + std::strerror(errno));
  }
  if (type_got < 1 || body_got < static_cast<ssize_t>(frame.body.size())) {
    return Status::Internal("truncated frame: EOF inside payload");
  }
  frame.type = static_cast<MsgType>(type);
  return frame;
}

}  // namespace server
}  // namespace standoff
