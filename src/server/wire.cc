#include "server/wire.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

namespace standoff {
namespace server {

namespace {

#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

#if defined(IOV_MAX)
constexpr size_t kMaxIov = IOV_MAX;
#else
constexpr size_t kMaxIov = 1024;
#endif

/// Encodes a frame's u32 length and u8 type into `out[0..5)`.
void EncodePrefix(MsgType type, size_t body_size, char* out) {
  StoreU32(out, static_cast<uint32_t>(body_size + 1));
  out[4] = static_cast<char>(type);
}

bool FitsFrame(size_t body_size) { return body_size + 1 <= kMaxFrameBytes; }

Status OversizedBody() {
  return Status::Invalid("frame body exceeds kMaxFrameBytes");
}

/// Sends every byte `iov[0..count)` names, IOV_MAX iovecs per sendmsg,
/// resuming after a short write. Advances the iovecs in place.
Status SendGathered(int fd, iovec* iov, size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = std::min(count, kMaxIov);
    const ssize_t n = ::sendmsg(fd, &msg, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("sendmsg: ") +
                              std::strerror(errno));
    }
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (sent > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<uint32_t> TakeU32(std::string_view body, size_t* offset) {
  if (body.size() < *offset || body.size() - *offset < 4) {
    return Status::Invalid("frame body too short for u32");
  }
  const uint32_t value = LoadU32(body.data() + *offset);
  *offset += 4;
  return value;
}

StatusOr<uint64_t> TakeU64(std::string_view body, size_t* offset) {
  if (body.size() < *offset || body.size() - *offset < 8) {
    return Status::Invalid("frame body too short for u64");
  }
  const uint64_t value = LoadU64(body.data() + *offset);
  *offset += 8;
  return value;
}

void FrameWriter::AddPrefix(MsgType type, size_t body_size) {
  if (!FitsFrame(body_size)) oversized_ = true;
  const size_t offset = owned_.size();
  owned_.resize(offset + kFramePrefixBytes);
  EncodePrefix(type, body_size, owned_.data() + offset);
  // Owned bytes queued back to back go out as one iovec.
  if (!pieces_.empty() && pieces_.back().data == nullptr) {
    pieces_.back().size += kFramePrefixBytes;
  } else {
    pieces_.push_back({nullptr, offset, kFramePrefixBytes});
  }
}

void FrameWriter::AddCopied(MsgType type, std::string_view body) {
  AddPrefix(type, body.size());
  owned_.append(body);
  pieces_.back().size += body.size();
}

void FrameWriter::AddBorrowed(MsgType type, std::string_view body) {
  AddPrefix(type, body.size());
  if (!body.empty()) pieces_.push_back({body.data(), 0, body.size()});
}

Status FrameWriter::Flush(int fd) {
  Status status = Status::OK();
  if (oversized_) {
    status = OversizedBody();
  } else {
    // owned_ no longer grows, so pointers into it hold for the send.
    iov_.clear();
    for (const Piece& piece : pieces_) {
      const char* data =
          piece.data != nullptr ? piece.data : owned_.data() + piece.offset;
      iov_.push_back({const_cast<char*>(data), piece.size});
    }
    status = SendGathered(fd, iov_.data(), iov_.size());
  }
  owned_.clear();
  pieces_.clear();
  oversized_ = false;
  return status;
}

Status WriteFrame(int fd, MsgType type, std::string_view body) {
  if (!FitsFrame(body.size())) return OversizedBody();
  char prefix[kFramePrefixBytes];
  EncodePrefix(type, body.size(), prefix);
  iovec iov[2] = {{prefix, sizeof prefix},
                  {const_cast<char*>(body.data()), body.size()}};
  return SendGathered(fd, iov, body.empty() ? 1 : 2);
}

FrameReader::FrameReader(int fd)
    : fd_(fd),
      buf_(new char[kInitialBytes]),
      capacity_(kInitialBytes) {}

void FrameReader::Reserve(size_t need) {
  const size_t have = end_ - begin_;
  if (need > capacity_) {
    std::unique_ptr<char[]> grown(new char[need]);
    std::memcpy(grown.get(), buf_.get() + begin_, have);
    buf_ = std::move(grown);
    capacity_ = need;
  } else {
    std::memmove(buf_.get(), buf_.get() + begin_, have);
  }
  begin_ = 0;
  end_ = have;
}

StatusOr<Frame> FrameReader::Next() {
  if (begin_ == end_) begin_ = end_ = 0;
  // The previous frame outgrew the initial buffer: hand the memory
  // back as soon as what is still buffered fits the small one.
  if (capacity_ > kInitialBytes && end_ - begin_ <= kInitialBytes) {
    std::unique_ptr<char[]> small(new char[kInitialBytes]);
    std::memcpy(small.get(), buf_.get() + begin_, end_ - begin_);
    buf_ = std::move(small);
    capacity_ = kInitialBytes;
    end_ -= begin_;
    begin_ = 0;
  }
  for (;;) {
    const size_t have = end_ - begin_;
    size_t need = 4;
    if (have >= 4) {
      const uint32_t length = LoadU32(buf_.get() + begin_);
      if (length == 0) return Status::Invalid("zero-length frame");
      if (length > kMaxFrameBytes) {
        return Status::Invalid("frame length " + std::to_string(length) +
                               " exceeds cap " +
                               std::to_string(kMaxFrameBytes));
      }
      need = 4 + size_t{length};
      if (have >= need) {
        Frame frame;
        frame.type = static_cast<MsgType>(buf_[begin_ + 4]);
        frame.body = std::string_view(buf_.get() + begin_ + kFramePrefixBytes,
                                      length - 1);
        begin_ += need;
        return frame;
      }
    }
    if (capacity_ - begin_ < need) Reserve(need);
    const ssize_t n = ::recv(fd_, buf_.get() + end_, capacity_ - end_, 0);
    if (n > 0) {
      end_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("recv: ") + std::strerror(errno));
    }
    if (have == 0) return Status::NotFound("connection closed");
    return Status::Internal(have < 4
                                ? "truncated frame: EOF inside length prefix"
                                : "truncated frame: EOF inside payload");
  }
}

}  // namespace server
}  // namespace standoff
