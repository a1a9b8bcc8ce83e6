#include "storage/snapshot.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace standoff {
namespace storage {

namespace {

// ---------------------------------------------------------------------------
// Format constants. The magic doubles as a human-readable file signature;
// the endian marker rejects cross-endian opens (we never byte-swap —
// zero-copy means the bytes ARE the columns).
// ---------------------------------------------------------------------------

constexpr char kMagic[8] = {'S', 'O', 'S', 'N', 'A', 'P', '0', '1'};
constexpr uint32_t kEndianMarker = 0x01020304u;
constexpr size_t kHeaderSize = 64;
// Cache-line segment alignment: a borrowed column's first row sits on a
// 64-byte boundary in the mapping (mmap bases are page-aligned), so the
// SIMD merge kernels see aligned full-width rows from offset zero.
// Changing this is a format change — bump kSnapshotVersion with it.
constexpr size_t kSegmentAlign = 64;

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint64_t file_size;
  uint64_t toc_offset;
  uint64_t toc_size;
  uint64_t checksum;  // FNV-1a 64 over bytes [kHeaderSize, file_size)
  uint32_t shard_count;
  uint32_t reserved;
};
static_assert(sizeof(Header) <= kHeaderSize, "header must fit its slot");

/// One column segment: `count` elements of the column's type starting
/// at byte `offset` (8-byte aligned, before the TOC).
struct SegRef {
  uint64_t offset = 0;
  uint64_t count = 0;
};

/// FNV-style checksum, 8 independent 64-bit lanes consuming 64 bytes
/// per round so the multiply latency pipelines — the open-time verify
/// pass runs at memory speed instead of one byte per multiply. Not
/// cryptographic; it guards against corruption, not adversaries.
uint64_t Fnv1a64(const uint8_t* data, size_t n) {
  constexpr uint64_t kPrime = 1099511628211ull;
  constexpr uint64_t kBasis = 1469598103934665603ull;
  uint64_t lanes[8];
  for (int l = 0; l < 8; ++l) lanes[l] = kBasis + static_cast<uint64_t>(l);
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    for (int l = 0; l < 8; ++l) {
      uint64_t chunk;
      std::memcpy(&chunk, data + i + l * 8, 8);
      lanes[l] = (lanes[l] ^ chunk) * kPrime;
    }
  }
  uint64_t h = kBasis;
  for (int l = 0; l < 8; ++l) {
    h ^= lanes[l];
    h *= kPrime;
  }
  for (; i < n; ++i) {
    h ^= data[i];
    h *= kPrime;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Writer: segments accumulate in one buffer (header slot first), the
// TOC is serialized separately and appended last.
// ---------------------------------------------------------------------------

class Writer {
 public:
  Writer() : buffer_(kHeaderSize, '\0') {}

  template <typename T>
  SegRef AddColumn(const T* data, size_t count) {
    buffer_.resize((buffer_.size() + kSegmentAlign - 1) &
                   ~size_t{kSegmentAlign - 1});
    SegRef ref;
    ref.offset = buffer_.size();
    ref.count = count;
    buffer_.append(reinterpret_cast<const char*>(data), count * sizeof(T));
    return ref;
  }

  std::string& buffer() { return buffer_; }

 private:
  std::string buffer_;
};

void PutU32(uint32_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutU64(uint64_t v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutRef(const SegRef& ref, std::string* out) {
  PutU64(ref.offset, out);
  PutU64(ref.count, out);
}
void PutStr(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s.data(), s.size());
}

// ---------------------------------------------------------------------------
// Reader: a bounds-checked cursor over the mapped TOC plus segment
// resolution against the mapped file. Every malformed condition is a
// Status, never UB.
// ---------------------------------------------------------------------------

class Reader {
 public:
  Reader(const uint8_t* base, size_t toc_offset, size_t toc_size)
      : base_(base),
        toc_offset_(toc_offset),
        cur_(toc_offset),
        end_(toc_offset + toc_size) {}

  Status GetU32(uint32_t* v) { return GetPod(v); }
  Status GetU64(uint64_t* v) { return GetPod(v); }

  Status GetRef(SegRef* ref) {
    STANDOFF_RETURN_IF_ERROR(GetU64(&ref->offset));
    return GetU64(&ref->count);
  }

  Status GetStr(std::string_view* s) {
    uint32_t n;
    STANDOFF_RETURN_IF_ERROR(GetU32(&n));
    if (end_ - cur_ < n) return Truncated();
    *s = std::string_view(reinterpret_cast<const char*>(base_ + cur_), n);
    cur_ += n;
    return Status::OK();
  }

  /// Resolves a segment ref to a typed pointer into the mapping.
  /// Segments must lie between the header and the TOC, aligned for T.
  template <typename T>
  Status Resolve(const SegRef& ref, const T** data) {
    // Divide instead of multiplying: count * sizeof(T) could wrap in
    // uint64 and sneak a huge segment past the bound.
    if (ref.offset < kHeaderSize || ref.offset > toc_offset_ ||
        ref.count > (toc_offset_ - ref.offset) / sizeof(T)) {
      return Status::Invalid("snapshot segment out of bounds");
    }
    // Every segment the writer emits is kSegmentAlign-aligned (a
    // superset of any element alignment); anything less in a file of
    // the current version is corruption.
    if (ref.offset % kSegmentAlign != 0) {
      return Status::Invalid("snapshot segment misaligned");
    }
    *data = reinterpret_cast<const T*>(base_ + ref.offset);
    return Status::OK();
  }

  bool exhausted() const { return cur_ == end_; }

 private:
  template <typename T>
  Status GetPod(T* v) {
    if (end_ - cur_ < sizeof(T)) return Truncated();
    std::memcpy(v, base_ + cur_, sizeof(T));
    cur_ += sizeof(T);
    return Status::OK();
  }

  Status Truncated() const {
    return Status::Invalid("snapshot TOC truncated");
  }

  const uint8_t* base_;
  size_t toc_offset_;
  size_t cur_;
  size_t end_;
};

// Durable atomic publish: the bytes go to a same-directory temp file,
// are fsync'd to storage, and only then renamed over the final name;
// the parent directory is fsync'd so the rename itself survives a
// crash. A reader at `path` therefore sees either the complete old
// generation or the complete new one, never a truncation — the
// invariant a hot-swapping server depends on. Any failure (full disk,
// kill mid-write) leaves at worst a stale "<path>.tmp", which the next
// save overwrites.
Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open " + tmp + " for writing");
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal("short write to " + tmp);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("cannot fsync " + tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("cannot close " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0 || ::fsync(dfd) != 0) {
    if (dfd >= 0) ::close(dfd);
    return Status::Internal("cannot fsync directory " + dir);
  }
  ::close(dfd);
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotIO: the one class with private access to the column owners.
// Save reads owned or borrowed columns; Load points fresh tables at
// the mapping.
// ---------------------------------------------------------------------------

class SnapshotIO {
 public:
  // ---- name dictionary ----

  static void SaveNames(const NameTable& names, Writer* w, std::string* toc) {
    std::string bytes;
    std::vector<uint32_t> offsets;
    offsets.reserve(names.size() + 1);
    offsets.push_back(0);
    for (const std::string_view v : names.views_) {
      bytes.append(v.data(), v.size());
      offsets.push_back(static_cast<uint32_t>(bytes.size()));
    }
    PutU32(static_cast<uint32_t>(names.size()), toc);
    PutRef(w->AddColumn(bytes.data(), bytes.size()), toc);
    PutRef(w->AddColumn(offsets.data(), offsets.size()), toc);
  }

  static Status LoadNames(Reader* r, NameTable* names) {
    uint32_t count;
    SegRef bytes_ref, offsets_ref;
    STANDOFF_RETURN_IF_ERROR(r->GetU32(&count));
    STANDOFF_RETURN_IF_ERROR(r->GetRef(&bytes_ref));
    STANDOFF_RETURN_IF_ERROR(r->GetRef(&offsets_ref));
    const char* bytes = nullptr;
    const uint32_t* offsets = nullptr;
    STANDOFF_RETURN_IF_ERROR(r->Resolve(bytes_ref, &bytes));
    STANDOFF_RETURN_IF_ERROR(r->Resolve(offsets_ref, &offsets));
    if (offsets_ref.count != uint64_t{count} + 1) {
      return Status::Invalid("snapshot name dictionary shape mismatch");
    }
    names->views_.reserve(count);
    names->ids_.reserve(count);
    for (uint32_t id = 0; id < count; ++id) {
      if (offsets[id] > offsets[id + 1] || offsets[id + 1] > bytes_ref.count) {
        return Status::Invalid("snapshot name dictionary offsets corrupt");
      }
      const std::string_view v(bytes + offsets[id],
                               offsets[id + 1] - offsets[id]);
      names->views_.push_back(v);  // borrowed: points into the mapping
      names->ids_.emplace(v, id);
    }
    return Status::OK();
  }

  // ---- node tables + element indexes ----

  static void SaveNodeTable(const NodeTable& t, Writer* w, std::string* toc) {
    PutRef(w->AddColumn(t.kinds_.data(), t.kinds_.size()), toc);
    PutRef(w->AddColumn(t.names_.data(), t.names_.size()), toc);
    PutRef(w->AddColumn(t.parents_.data(), t.parents_.size()), toc);
    PutRef(w->AddColumn(t.sizes_.data(), t.sizes_.size()), toc);
    PutRef(w->AddColumn(t.levels_.data(), t.levels_.size()), toc);
    PutRef(w->AddColumn(t.attr_begins_.data(), t.attr_begins_.size()), toc);
    PutRef(w->AddColumn(t.attr_names_.data(), t.attr_names_.size()), toc);
    PutRef(w->AddColumn(t.attr_value_offsets_.data(),
                        t.attr_value_offsets_.size()),
           toc);
    PutRef(w->AddColumn(t.attr_value_lengths_.data(),
                        t.attr_value_lengths_.size()),
           toc);
    PutRef(w->AddColumn(t.attr_values_.data(), t.attr_values_.size()), toc);
    PutRef(w->AddColumn(t.text_offsets_.data(), t.text_offsets_.size()), toc);
    PutRef(w->AddColumn(t.text_lengths_.data(), t.text_lengths_.size()), toc);
    PutRef(w->AddColumn(t.text_buffer_.data(), t.text_buffer_.size()), toc);
  }

  static Status LoadNodeTable(Reader* r, NodeTable* t) {
    SegRef kinds, names, parents, sizes, levels, attr_begins, attr_names,
        attr_off, attr_len, attr_values, text_off, text_len, text_buf;
    for (SegRef* ref : {&kinds, &names, &parents, &sizes, &levels,
                        &attr_begins, &attr_names, &attr_off, &attr_len,
                        &attr_values, &text_off, &text_len, &text_buf}) {
      STANDOFF_RETURN_IF_ERROR(r->GetRef(ref));
    }
    const uint64_t n = kinds.count;
    if (names.count != n || parents.count != n || sizes.count != n ||
        levels.count != n || text_off.count != n || text_len.count != n ||
        attr_begins.count != n + 1 || attr_names.count != attr_off.count ||
        attr_names.count != attr_len.count) {
      return Status::Invalid("snapshot node-table column shape mismatch");
    }
    STANDOFF_RETURN_IF_ERROR(Borrow(r, kinds, &t->kinds_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, names, &t->names_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, parents, &t->parents_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, sizes, &t->sizes_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, levels, &t->levels_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, attr_begins, &t->attr_begins_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, attr_names, &t->attr_names_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, attr_off, &t->attr_value_offsets_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, attr_len, &t->attr_value_lengths_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, attr_values, &t->attr_values_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, text_off, &t->text_offsets_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, text_len, &t->text_lengths_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, text_buf, &t->text_buffer_));
    return Status::OK();
  }

  static void SaveElementIndex(const ElementIndex& e, Writer* w,
                               std::string* toc) {
    PutRef(w->AddColumn(e.offsets_.data(), e.offsets_.size()), toc);
    PutRef(w->AddColumn(e.pres_.data(), e.pres_.size()), toc);
  }

  static Status LoadElementIndex(Reader* r, ElementIndex* e) {
    SegRef offsets, pres;
    STANDOFF_RETURN_IF_ERROR(r->GetRef(&offsets));
    STANDOFF_RETURN_IF_ERROR(r->GetRef(&pres));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, offsets, &e->offsets_));
    STANDOFF_RETURN_IF_ERROR(Borrow(r, pres, &e->pres_));
    if (!e->offsets_.empty() &&
        e->offsets_.back() != e->pres_.size()) {
      return Status::Invalid("snapshot element-index shape mismatch");
    }
    return Status::OK();
  }

  // ---- region indexes ----

  static void SaveRegionIndex(const so::RegionIndex& index, Writer* w,
                              std::string* toc) {
    const so::RegionColumns cols = index.columns();
    PutU32(cols.start_sorted ? 1 : 0, toc);
    PutRef(w->AddColumn(cols.start, cols.size), toc);
    PutRef(w->AddColumn(cols.end, cols.size), toc);
    PutRef(w->AddColumn(cols.id, cols.size), toc);
    PutRef(w->AddColumn(index.annotated_ids_.data(),
                        index.annotated_ids_.size()),
           toc);
    PutRef(w->AddColumn(index.rows_by_id_.data(), index.rows_by_id_.size()),
           toc);
  }

  static StatusOr<so::RegionIndex> LoadRegionIndex(Reader* r) {
    uint32_t start_sorted;
    STANDOFF_RETURN_IF_ERROR(r->GetU32(&start_sorted));
    SegRef start, end, id, ann_ids, rows;
    for (SegRef* ref : {&start, &end, &id, &ann_ids, &rows}) {
      STANDOFF_RETURN_IF_ERROR(r->GetRef(ref));
    }
    if (end.count != start.count || id.count != start.count) {
      return Status::Invalid("snapshot region columns shape mismatch");
    }
    so::RegionIndex::BorrowedParts parts;
    parts.columns.size = start.count;
    parts.columns.start_sorted = start_sorted != 0;
    STANDOFF_RETURN_IF_ERROR(r->Resolve(start, &parts.columns.start));
    STANDOFF_RETURN_IF_ERROR(r->Resolve(end, &parts.columns.end));
    STANDOFF_RETURN_IF_ERROR(r->Resolve(id, &parts.columns.id));
    STANDOFF_RETURN_IF_ERROR(ResolveSpan(r, ann_ids, &parts.annotated_ids));
    STANDOFF_RETURN_IF_ERROR(ResolveSpan(r, rows, &parts.rows_by_id));
    return so::RegionIndex::FromBorrowed(parts);
  }

 private:
  template <typename T>
  static Status Borrow(Reader* r, const SegRef& ref, Column<T>* col) {
    const T* data = nullptr;
    STANDOFF_RETURN_IF_ERROR(r->Resolve(ref, &data));
    col->Borrow(data, ref.count);
    return Status::OK();
  }

  template <typename T>
  static Status ResolveSpan(Reader* r, const SegRef& ref, Span<T>* span) {
    const T* data = nullptr;
    STANDOFF_RETURN_IF_ERROR(r->Resolve(ref, &data));
    *span = Span<T>(data, ref.count);
    return Status::OK();
  }
};

namespace {

Status SaveImpl(const DocumentStore& store, uint32_t shard_count,
                const std::string& path,
                const SnapshotWriteOptions& options) {
  const size_t doc_count = store.document_count();

  // Region indexes first — built in parallel (the expensive part of a
  // save from raw XML), serialized later. A document that already
  // carries a preloaded index for a config (re-saving an opened
  // snapshot) reuses it instead of rebuilding.
  struct IndexEntry {
    DocId doc;
    const so::StandoffConfig* config;
    const so::RegionIndex* index = nullptr;  // preloaded, or &built
    so::RegionIndex built;
  };
  std::vector<IndexEntry> index_entries;
  index_entries.reserve(doc_count * options.configs.size());
  for (const so::StandoffConfig& config : options.configs) {
    for (DocId doc = 0; doc < doc_count; ++doc) {
      index_entries.push_back(IndexEntry{doc, &config, nullptr, {}});
    }
  }
  STANDOFF_RETURN_IF_ERROR(ParallelFor(
      options.pool, 0, index_entries.size(), [&](size_t i) -> Status {
        IndexEntry& entry = index_entries[i];
        const std::string fingerprint = so::ConfigFingerprint(*entry.config);
        // Caller-supplied overrides (compaction's merged indexes) win
        // over both the preloaded index and a fresh build.
        for (const auto& override_entry : options.index_overrides) {
          if (override_entry.doc == entry.doc &&
              override_entry.fingerprint == fingerprint &&
              override_entry.index != nullptr) {
            entry.index = override_entry.index.get();
            return Status::OK();
          }
        }
        for (const auto& [saved, preloaded] :
             store.document(entry.doc).preloaded_indexes) {
          if (saved == fingerprint) {
            entry.index = preloaded.get();
            return Status::OK();
          }
        }
        StatusOr<so::RegionIndex> built = so::RegionIndex::Build(
            store.table(entry.doc),
            so::Resolve(*entry.config, store.names()));
        if (!built.ok()) return built.status();
        entry.built = built.MoveValueUnsafe();
        entry.index = &entry.built;
        return Status::OK();
      }));

  Writer writer;
  std::string toc;

  SnapshotIO::SaveNames(store.names(), &writer, &toc);

  PutU32(static_cast<uint32_t>(doc_count), &toc);
  for (DocId doc = 0; doc < doc_count; ++doc) {
    const Document& d = store.document(doc);
    PutStr(d.name, &toc);
    PutRef(writer.AddColumn(d.blob.data(), d.blob.size()), &toc);
    SnapshotIO::SaveNodeTable(d.table, &writer, &toc);
    SnapshotIO::SaveElementIndex(d.element_index, &writer, &toc);
  }

  PutU32(static_cast<uint32_t>(index_entries.size()), &toc);
  for (const IndexEntry& entry : index_entries) {
    PutU32(entry.doc, &toc);
    PutStr(entry.config->start_attr, &toc);
    PutStr(entry.config->end_attr, &toc);
    PutStr(entry.config->type, &toc);
    SnapshotIO::SaveRegionIndex(*entry.index, &writer, &toc);
  }

  // Assemble: [header][segments][toc], then stamp the header with the
  // final geometry and the checksum over everything after it.
  std::string& buffer = writer.buffer();
  buffer.resize((buffer.size() + kSegmentAlign - 1) &
                ~size_t{kSegmentAlign - 1});
  const uint64_t toc_offset = buffer.size();
  buffer += toc;

  Header header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kSnapshotVersion;
  header.endian = kEndianMarker;
  header.file_size = buffer.size();
  header.toc_offset = toc_offset;
  header.toc_size = toc.size();
  header.shard_count = shard_count == 0 ? 1 : shard_count;
  header.checksum =
      Fnv1a64(reinterpret_cast<const uint8_t*>(buffer.data()) + kHeaderSize,
              buffer.size() - kHeaderSize);
  std::memcpy(&buffer[0], &header, sizeof(header));

  return WriteFileAtomic(path, buffer);
}

}  // namespace

Status SaveSnapshot(const ShardedStore& store, const std::string& path,
                    const SnapshotWriteOptions& options) {
  return SaveImpl(store.store(), store.shard_count(), path, options);
}

Status SaveSnapshot(const DocumentStore& store, const std::string& path,
                    const SnapshotWriteOptions& options) {
  return SaveImpl(store, /*shard_count=*/1, path, options);
}

namespace {

/// RAII over the raw bytes backing an open snapshot: an mmap'd file.
struct MappedBytes {
  void* data = nullptr;
  size_t size = 0;

  MappedBytes() = default;
  MappedBytes(const MappedBytes&) = delete;
  MappedBytes& operator=(const MappedBytes&) = delete;
  ~MappedBytes() {
    if (data != nullptr) munmap(data, size);
  }
};

/// Everything a snapshot-backed store borrows from, bundled behind one
/// refcount: the mapping and the region indexes whose columns point
/// into it. ShardedStore::set_keepalive, Document::keepalive, and the
/// aliasing preloaded-index shared_ptrs all reference this block, so
/// the mapping unmaps exactly when the last borrower is gone — no
/// matter which of the Snapshot, the store, or an individual view dies
/// first.
struct SnapshotResources {
  MappedBytes map;  // declared first: destroyed after the indexes
  std::vector<std::unique_ptr<so::RegionIndex>> indexes;
};

}  // namespace

StatusOr<std::unique_ptr<Snapshot>> Snapshot::Open(
    const std::string& path, const SnapshotOpenOptions& options) {
  std::unique_ptr<Snapshot> snapshot(new Snapshot());
  auto resources = std::make_shared<SnapshotResources>();

  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open snapshot " + path);
  struct stat st;
  if (fstat(fd, &st) != 0) {
    close(fd);
    return Status::Internal("cannot stat snapshot " + path);
  }
  const size_t file_size = static_cast<size_t>(st.st_size);
  if (file_size < kHeaderSize) {
    close(fd);
    return Status::Invalid("snapshot file truncated (no header): " + path);
  }
  void* map = mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  close(fd);  // the mapping keeps its own reference
  if (map == MAP_FAILED) {
    return Status::Internal("cannot mmap snapshot " + path);
  }
  resources->map.data = map;
  resources->map.size = file_size;
  snapshot->file_size_ = resources->map.size;

  const uint8_t* base = static_cast<const uint8_t*>(resources->map.data);
  Header header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Invalid("not a snapshot file (bad magic): " + path);
  }
  if (header.version != kSnapshotVersion) {
    return Status::Invalid("unsupported snapshot version " +
                           std::to_string(header.version) + " (expected " +
                           std::to_string(kSnapshotVersion) + ")");
  }
  if (header.endian != kEndianMarker) {
    return Status::Invalid(
        "snapshot written with a different byte order; re-save on this "
        "architecture");
  }
  if (header.file_size != resources->map.size) {
    return Status::Invalid("snapshot file truncated: header records " +
                           std::to_string(header.file_size) + " bytes, file "
                           "has " + std::to_string(resources->map.size));
  }
  if (header.toc_offset < kHeaderSize ||
      header.toc_offset > header.file_size ||
      header.toc_size > header.file_size - header.toc_offset) {
    return Status::Invalid("snapshot TOC out of bounds");
  }
  if (options.verify_checksum) {
    const uint64_t got = Fnv1a64(base + kHeaderSize,
                                 resources->map.size - kHeaderSize);
    if (got != header.checksum) {
      return Status::Invalid("snapshot checksum mismatch (file corrupt)");
    }
  }

  Reader reader(base, static_cast<size_t>(header.toc_offset),
                static_cast<size_t>(header.toc_size));

  snapshot->store_ = std::make_shared<ShardedStore>(header.shard_count);
  snapshot->store_->set_keepalive(resources);
  DocumentStore* store = snapshot->store_->mutable_store();
  STANDOFF_RETURN_IF_ERROR(
      SnapshotIO::LoadNames(&reader, store->mutable_names()));

  uint32_t doc_count;
  STANDOFF_RETURN_IF_ERROR(reader.GetU32(&doc_count));
  for (uint32_t i = 0; i < doc_count; ++i) {
    auto doc = std::make_unique<Document>();
    doc->keepalive = resources;
    std::string_view name, blob;
    STANDOFF_RETURN_IF_ERROR(reader.GetStr(&name));
    doc->name.assign(name.data(), name.size());
    SegRef blob_ref;
    STANDOFF_RETURN_IF_ERROR(reader.GetRef(&blob_ref));
    if (blob_ref.count > 0) {
      const char* blob_data = nullptr;
      STANDOFF_RETURN_IF_ERROR(reader.Resolve(blob_ref, &blob_data));
      doc->blob.assign(blob_data, blob_ref.count);
    }
    STANDOFF_RETURN_IF_ERROR(SnapshotIO::LoadNodeTable(&reader, &doc->table));
    STANDOFF_RETURN_IF_ERROR(
        SnapshotIO::LoadElementIndex(&reader, &doc->element_index));
    snapshot->store_->AdoptDocument(std::move(doc));
  }

  uint32_t index_count;
  STANDOFF_RETURN_IF_ERROR(reader.GetU32(&index_count));
  resources->indexes.reserve(index_count);
  for (uint32_t i = 0; i < index_count; ++i) {
    uint32_t doc;
    STANDOFF_RETURN_IF_ERROR(reader.GetU32(&doc));
    if (doc >= doc_count) {
      return Status::Invalid("snapshot region index references document " +
                             std::to_string(doc) + " of " +
                             std::to_string(doc_count));
    }
    so::StandoffConfig config;
    std::string_view start_attr, end_attr, type;
    STANDOFF_RETURN_IF_ERROR(reader.GetStr(&start_attr));
    STANDOFF_RETURN_IF_ERROR(reader.GetStr(&end_attr));
    STANDOFF_RETURN_IF_ERROR(reader.GetStr(&type));
    config.start_attr.assign(start_attr.data(), start_attr.size());
    config.end_attr.assign(end_attr.data(), end_attr.size());
    config.type.assign(type.data(), type.size());
    StatusOr<so::RegionIndex> index = SnapshotIO::LoadRegionIndex(&reader);
    if (!index.ok()) return index.status();
    resources->indexes.push_back(
        std::make_unique<so::RegionIndex>(index.MoveValueUnsafe()));
    // Aliasing shared_ptr: holding the index holds the whole resource
    // block, so a preloaded-index entry copied out of the Document
    // keeps the mapped columns it borrows alive on its own.
    store->mutable_document(doc)->preloaded_indexes.emplace_back(
        so::ConfigFingerprint(config),
        std::shared_ptr<const so::RegionIndex>(
            resources, resources->indexes.back().get()));
  }
  snapshot->region_index_count_ = resources->indexes.size();
  if (!reader.exhausted()) {
    return Status::Invalid("snapshot TOC has trailing bytes");
  }

  return snapshot;
}

}  // namespace storage
}  // namespace standoff
