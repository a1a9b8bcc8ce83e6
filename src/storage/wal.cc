#include "storage/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/le_bytes.h"

namespace standoff {
namespace storage {
namespace {

// Segment header constants. The magic spells "SOWALSEG" little-endian.
constexpr uint64_t kWalMagic = 0x4745534C41574F53ULL;
constexpr uint32_t kWalVersion = 1;
// magic + version + path_len + segment_index + base_seq (checksum and
// the path itself follow).
constexpr size_t kHeaderFixedBytes = 8 + 4 + 4 + 8 + 8;
constexpr size_t kRecordFrameBytes = 4 + 8;  // len + checksum
constexpr size_t kMaxBasePathBytes = 4096;
// kNone-policy user-space buffer flush threshold.
constexpr size_t kPendingFlushBytes = 64u << 10;

// Word-at-a-time multiply-fold checksum (wyhash-style constants).
// Every per-chunk op is bijective, so any single-bit flip perturbs the
// digest; the goal is torn-write and corruption detection on the hot
// append path, not cryptography. Roughly 8x faster than a byte-serial
// FNV chain on the ~40-byte records the delta WAL appends.
uint64_t Checksum64(std::string_view data) {
  uint64_t h = 0x9E3779B97F4A7C15ULL ^
               (static_cast<uint64_t>(data.size()) * 0xA0761D6478BD642FULL);
  size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, data.data() + i, 8);
    h = (h ^ word) * 0xE7037ED1A0B428DBULL;
    h ^= h >> 32;
  }
  uint64_t tail = 0;
  int shift = 0;
  for (; i < data.size(); ++i) {
    tail |= static_cast<uint64_t>(static_cast<unsigned char>(data[i]))
            << shift;
    shift += 8;
  }
  h = (h ^ tail) * 0x8EBC6AF09C88C6E3ULL;
  h ^= h >> 29;
  return h;
}

// -----------------------------------------------------------------------
// POSIX FileIo.

class PosixWalFile : public WalFile {
 public:
  explicit PosixWalFile(int fd) : fd_(fd) {}
  ~PosixWalFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(std::string("wal write: ") +
                                std::strerror(errno));
      }
      off += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::Internal(std::string("wal fsync: ") +
                              std::strerror(errno));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) != 0) {
      fd_ = -1;
      return Status::Internal(std::string("wal close: ") +
                              std::strerror(errno));
    }
    fd_ = -1;
    return Status::OK();
  }

 private:
  int fd_;
};

class PosixIo : public FileIo {
 public:
  StatusOr<std::unique_ptr<WalFile>> OpenForAppend(
      const std::string& path) override {
    const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd < 0) {
      return Status::Internal("open " + path + ": " + std::strerror(errno));
    }
    return std::unique_ptr<WalFile>(new PosixWalFile(fd));
  }

  StatusOr<std::string> ReadFileToString(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::Internal("open " + path + ": " + std::strerror(errno));
    }
    std::string out;
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        const std::string err = std::strerror(errno);
        ::close(fd);
        return Status::Internal("read " + path + ": " + err);
      }
      if (n == 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return out;
  }

  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      if (errno == ENOENT) return Status::NotFound("no such dir: " + dir);
      return Status::Internal("opendir " + dir + ": " + std::strerror(errno));
    }
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      struct stat st;
      if (::stat((dir + "/" + name).c_str(), &st) == 0 &&
          S_ISREG(st.st_mode)) {
        names.push_back(name);
      }
    }
    ::closedir(d);
    return names;
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Status::Internal("truncate " + path + ": " +
                              std::strerror(errno));
    }
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::Internal("unlink " + path + ": " + std::strerror(errno));
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
      return Status::Internal("open dir " + dir + ": " + std::strerror(errno));
    }
    Status st;
    if (::fsync(fd) != 0) {
      st = Status::Internal("fsync dir " + dir + ": " + std::strerror(errno));
    }
    ::close(fd);
    return st;
  }

  Status CreateDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Internal("mkdir " + dir + ": " + std::strerror(errno));
    }
    return Status::OK();
  }
};

FileIo* ResolveIo(const WalOptions& options) {
  return options.io != nullptr ? options.io : PosixFileIo();
}

// -----------------------------------------------------------------------
// Segment header encode / decode.

std::string EncodeSegmentHeader(uint64_t index, uint64_t base_seq,
                                const std::string& base_path) {
  std::string out;
  AppendU64(&out, kWalMagic);
  AppendU32(&out, kWalVersion);
  AppendU32(&out, static_cast<uint32_t>(base_path.size()));
  AppendU64(&out, index);
  AppendU64(&out, base_seq);
  out += base_path;
  AppendU64(&out, Checksum64(out));
  return out;
}

struct SegmentHeader {
  uint64_t index = 0;
  uint64_t base_seq = 0;
  std::string base_path;
  size_t size = 0;  // header bytes consumed
};

/// False on any torn/corrupt/mismatched header.
bool DecodeSegmentHeader(std::string_view buf, SegmentHeader* out) {
  if (buf.size() < kHeaderFixedBytes + 8) return false;
  if (LoadU64(buf.data()) != kWalMagic) return false;
  if (LoadU32(buf.data() + 8) != kWalVersion) return false;
  const size_t path_len = LoadU32(buf.data() + 12);
  if (path_len > kMaxBasePathBytes) return false;
  const size_t total = kHeaderFixedBytes + path_len + 8;
  if (buf.size() < total) return false;
  const uint64_t want = LoadU64(buf.data() + kHeaderFixedBytes + path_len);
  if (Checksum64(buf.substr(0, kHeaderFixedBytes + path_len)) != want) {
    return false;
  }
  out->index = LoadU64(buf.data() + 16);
  out->base_seq = LoadU64(buf.data() + 24);
  out->base_path.assign(buf.data() + kHeaderFixedBytes, path_len);
  out->size = total;
  return true;
}

/// Parses "wal-<16 digits>.solog"; false for anything else.
bool ParseSegmentName(const std::string& name, uint64_t* index) {
  constexpr char kPrefix[] = "wal-";
  constexpr char kSuffix[] = ".solog";
  constexpr size_t kDigits = 16;
  if (name.size() != 4 + kDigits + 6) return false;
  if (name.compare(0, 4, kPrefix) != 0) return false;
  if (name.compare(4 + kDigits, 6, kSuffix) != 0) return false;
  uint64_t v = 0;
  for (size_t i = 0; i < kDigits; ++i) {
    const char c = name[4 + i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = v;
  return true;
}

}  // namespace

FileIo* PosixFileIo() {
  static PosixIo* io = new PosixIo();
  return io;
}

std::string WalSegmentPath(const std::string& dir, uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016" PRIu64 ".solog", index);
  return dir + "/" + name;
}

// ---------------------------------------------------------------------------
// Record codec.

void EncodeWalRecord(const WalRecord& record, std::string* out) {
  // One resize + raw little-endian stores: the append path runs this
  // under the store's write lock, so it allocates nothing once `out`
  // has warmed capacity and never touches a byte twice except for the
  // backpatched frame header.
  const bool insert = record.op == WalRecord::Op::kInsert;
  const size_t len = 1 + 8 + 4 + 4 + (insert ? 16 : 0) +
                     record.fingerprint.size();
  const size_t frame_off = out->size();
  out->resize(frame_off + kRecordFrameBytes + len);
  char* p = &(*out)[frame_off + kRecordFrameBytes];
  *p++ = static_cast<char>(record.op);
  StoreU64(p, record.seq);
  p += 8;
  StoreU32(p, record.doc);
  p += 4;
  StoreU32(p, record.id);
  p += 4;
  if (insert) {
    StoreU64(p, static_cast<uint64_t>(record.start));
    p += 8;
    StoreU64(p, static_cast<uint64_t>(record.end));
    p += 8;
  }
  std::memcpy(p, record.fingerprint.data(), record.fingerprint.size());
  char* frame = &(*out)[frame_off];
  StoreU32(frame, static_cast<uint32_t>(len));
  StoreU64(frame + 4, Checksum64(std::string_view(
                          out->data() + frame_off + kRecordFrameBytes, len)));
}

WalDecode DecodeWalRecord(std::string_view buffer, size_t* offset,
                          WalRecord* record, size_t max_record_bytes) {
  const size_t off = *offset;
  if (off == buffer.size()) return WalDecode::kEnd;
  if (buffer.size() - off < kRecordFrameBytes) return WalDecode::kCorrupt;
  const size_t len = LoadU32(buffer.data() + off);
  if (len == 0 || len > max_record_bytes) return WalDecode::kCorrupt;
  if (buffer.size() - off - kRecordFrameBytes < len) return WalDecode::kCorrupt;
  const uint64_t want = LoadU64(buffer.data() + off + 4);
  const std::string_view payload = buffer.substr(off + kRecordFrameBytes, len);
  if (Checksum64(payload) != want) return WalDecode::kCorrupt;

  const uint8_t op = static_cast<uint8_t>(payload[0]);
  size_t need = 1 + 8 + 4 + 4;
  if (op == static_cast<uint8_t>(WalRecord::Op::kInsert)) {
    need += 16;
  } else if (op != static_cast<uint8_t>(WalRecord::Op::kDelete)) {
    return WalDecode::kCorrupt;
  }
  if (payload.size() < need) return WalDecode::kCorrupt;
  record->op = static_cast<WalRecord::Op>(op);
  record->seq = LoadU64(payload.data() + 1);
  record->doc = LoadU32(payload.data() + 9);
  record->id = LoadU32(payload.data() + 13);
  if (record->op == WalRecord::Op::kInsert) {
    record->start = static_cast<int64_t>(LoadU64(payload.data() + 17));
    record->end = static_cast<int64_t>(LoadU64(payload.data() + 25));
  } else {
    record->start = record->end = 0;
  }
  record->fingerprint.assign(payload.substr(need));
  *offset = off + kRecordFrameBytes + len;
  return WalDecode::kOk;
}

// ---------------------------------------------------------------------------
// Replay.

StatusOr<WalRecoveryResult> ReplayWal(const WalOptions& options) {
  FileIo* io = ResolveIo(options);
  WalRecoveryResult result;

  auto names = io->ListDir(options.dir);
  if (!names.ok()) {
    if (names.status().IsNotFound()) return result;  // empty log
    return names.status();
  }
  std::vector<uint64_t> indexes;
  for (const std::string& name : *names) {
    uint64_t index = 0;
    if (ParseSegmentName(name, &index)) indexes.push_back(index);
  }
  std::sort(indexes.begin(), indexes.end());
  if (indexes.empty()) return result;
  result.next_segment_index = indexes.back() + 1;

  std::vector<WalRecord> raw;
  for (size_t si = 0; si < indexes.size(); ++si) {
    const bool final_segment = (si + 1 == indexes.size());
    const std::string path = WalSegmentPath(options.dir, indexes[si]);
    auto bytes = io->ReadFileToString(path);
    if (!bytes.ok()) return bytes.status();

    SegmentHeader header;
    if (!DecodeSegmentHeader(*bytes, &header) ||
        header.index != indexes[si]) {
      if (!final_segment) {
        return Status::Internal("wal: corrupt header in non-final segment " +
                                path);
      }
      // A torn header means the segment never durably opened: no record
      // in it was ever acknowledged. Drop the whole file.
      result.truncated_bytes += bytes->size();
      STANDOFF_RETURN_IF_ERROR(io->Remove(path));
      STANDOFF_RETURN_IF_ERROR(io->SyncDir(options.dir));
      break;
    }
    // Later segments rotate to newer bases; the newest valid header wins.
    if (header.base_seq >= result.base_seq) {
      result.base_seq = header.base_seq;
      result.base_path = header.base_path;
    }

    WalSegmentInfo info;
    info.index = indexes[si];
    size_t off = header.size;
    bool torn = false;
    for (;;) {
      const size_t record_start = off;
      WalRecord record;
      const WalDecode d =
          DecodeWalRecord(*bytes, &off, &record, options.max_record_bytes);
      if (d == WalDecode::kEnd) break;
      if (d == WalDecode::kCorrupt) {
        if (!final_segment) {
          return Status::Internal(
              "wal: corrupt record in non-final segment " + path);
        }
        result.truncated_bytes += bytes->size() - record_start;
        STANDOFF_RETURN_IF_ERROR(io->Truncate(path, record_start));
        torn = true;
        break;
      }
      ++result.scanned_records;
      raw.push_back(std::move(record));
      info.max_seq = raw.back().seq;
    }
    result.segments.push_back(info);
    if (torn) break;
  }

  result.max_seq = result.base_seq;
  for (WalRecord& record : raw) {
    result.max_seq = std::max(result.max_seq, record.seq);
    if (record.seq > result.base_seq) result.ops.push_back(std::move(record));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Writer.

Wal::Wal(const WalOptions& options, std::vector<WalSegmentInfo> segments)
    : options_(options),
      io_(ResolveIo(options)),
      old_segments_(std::move(segments)) {}

Wal::~Wal() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr && !failed_) {
    // Best-effort flush of a kNone-policy buffer; durability was never
    // promised for these bytes, but don't discard them gratuitously.
    (void)FlushLocked();
    (void)file_->Close();
  }
}

StatusOr<std::unique_ptr<Wal>> Wal::Open(const WalOptions& options,
                                         const WalRecoveryResult& recovery) {
  if (options.dir.empty()) {
    return Status::Invalid("wal: empty directory");
  }
  FileIo* io = ResolveIo(options);
  STANDOFF_RETURN_IF_ERROR(io->CreateDir(options.dir));
  std::unique_ptr<Wal> wal(new Wal(options, recovery.segments));
  {
    std::lock_guard<std::mutex> lock(wal->mu_);
    STANDOFF_RETURN_IF_ERROR(wal->OpenSegmentLocked(
        recovery.next_segment_index, recovery.base_seq, recovery.base_path));
  }
  return wal;
}

Status Wal::OpenSegmentLocked(uint64_t index, uint64_t base_seq,
                              const std::string& base_path) {
  if (file_ != nullptr) {
    STANDOFF_RETURN_IF_ERROR(FlushLocked());
    STANDOFF_RETURN_IF_ERROR(file_->Sync());
    ++fsyncs_;
    STANDOFF_RETURN_IF_ERROR(file_->Close());
    old_segments_.push_back({segment_index_, segment_max_seq_});
    file_.reset();
  }
  const std::string path = WalSegmentPath(options_.dir, index);
  auto file = io_->OpenForAppend(path);
  if (!file.ok()) return file.status();
  file_ = file.MoveValueUnsafe();
  segment_index_ = index;
  segment_max_seq_ = 0;
  // The header must be durable before any record ack can rely on this
  // segment, and the directory entry must survive a crash too.
  STANDOFF_RETURN_IF_ERROR(
      file_->Append(EncodeSegmentHeader(index, base_seq, base_path)));
  STANDOFF_RETURN_IF_ERROR(file_->Sync());
  ++fsyncs_;
  STANDOFF_RETURN_IF_ERROR(io_->SyncDir(options_.dir));
  sync_timer_.Reset();
  sync_pending_ = false;
  return Status::OK();
}

Status Wal::FlushLocked() {
  if (pending_.empty()) return Status::OK();
  STANDOFF_RETURN_IF_ERROR(file_->Append(pending_));
  pending_.clear();
  sync_pending_ = true;
  return Status::OK();
}

Status Wal::SyncLocked() {
  STANDOFF_RETURN_IF_ERROR(FlushLocked());
  if (!sync_pending_) return Status::OK();
  STANDOFF_RETURN_IF_ERROR(file_->Sync());
  ++fsyncs_;
  sync_pending_ = false;
  sync_timer_.Reset();
  return Status::OK();
}

Status Wal::Append(const WalRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_) {
    return Status::Unavailable("wal failed; store is read-only");
  }
  Status st;
  if (options_.sync == WalSyncPolicy::kNone) {
    // Bulk-load mode: records encode straight into the user-space
    // buffer (no durability promise until Sync/Rotate) so the hot
    // write path pays an in-place encode, not an allocation or a
    // syscall.
    EncodeWalRecord(record, &pending_);
    if (pending_.size() >= kPendingFlushBytes) st = FlushLocked();
  } else {
    scratch_.clear();
    EncodeWalRecord(record, &scratch_);
    st = file_->Append(scratch_);
    if (st.ok()) {
      sync_pending_ = true;
      if (options_.sync == WalSyncPolicy::kAlways ||
          sync_timer_.ElapsedSeconds() * 1000.0 >= options_.sync_interval_ms) {
        st = SyncLocked();
      }
    }
  }
  if (!st.ok()) {
    failed_ = true;
    return st;
  }
  ++appends_;
  segment_max_seq_ = record.seq;
  return Status::OK();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_) return Status::Unavailable("wal failed; store is read-only");
  const Status st = SyncLocked();
  if (!st.ok()) failed_ = true;
  return st;
}

Status Wal::Rotate(uint64_t base_seq, const std::string& base_path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_) return Status::Unavailable("wal failed; store is read-only");
  const Status st =
      OpenSegmentLocked(segment_index_ + 1, base_seq, base_path);
  if (!st.ok()) {
    failed_ = true;
    return st;
  }
  ++rotations_;
  // Retire segments whose every record is folded into the new base.
  // (The pre-rotation segment survives whenever it holds seq > base_seq
  // ops — those landed during compaction and are still only in the log.)
  std::vector<WalSegmentInfo> keep;
  bool removed = false;
  for (const WalSegmentInfo& seg : old_segments_) {
    if (seg.max_seq <= base_seq) {
      // Retirement is best-effort: a leftover segment only costs disk,
      // and replay still filters its records by base_seq.
      if (io_->Remove(WalSegmentPath(options_.dir, seg.index)).ok()) {
        ++retired_segments_;
        removed = true;
        continue;
      }
    }
    keep.push_back(seg);
  }
  old_segments_ = std::move(keep);
  if (removed) (void)io_->SyncDir(options_.dir);
  return Status::OK();
}

bool Wal::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WalStats stats;
  stats.appends = appends_;
  stats.fsyncs = fsyncs_;
  stats.rotations = rotations_;
  stats.retired_segments = retired_segments_;
  stats.failed = failed_;
  return stats;
}

uint64_t Wal::current_segment_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segment_index_;
}

}  // namespace storage
}  // namespace standoff
