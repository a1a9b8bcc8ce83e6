// Binary columnar snapshots: the cold-start path of the store.
//
// SaveSnapshot serializes a loaded store — name dictionary, every
// document's node-table and attribute columns, element-name indexes,
// blobs, and one prebuilt RegionIndex per (document, standoff config) —
// into a single versioned, checksummed file with a per-document offset
// directory. Snapshot::Open maps that file read-only and hands out a
// ShardedStore whose columns BORROW directly from the mapping
// (storage::Column<T> borrowed state): no deserialization, no heap
// copies of column payloads, OS page cache shared across processes.
// Region indexes are reconstructed with RegionIndex::FromBorrowed —
// their sorted columns, id-order index, and start_sorted promise come
// straight from the file — and registered in each document's
// preloaded_indexes list, so every Engine serves them through the
// ordinary RegionIndexCache::Get.
//
// What is NOT zero-copy: per-document metadata (names, the Document
// objects, shard lists), the name-dictionary hash map (rebuilt over
// borrowed keys), and StandOff base-text blobs (std::string today).
// All are O(documents + names), not O(column bytes).
//
// File layout (DESIGN.md §11 has the full specification):
//
//   [header 64B] [64-byte-aligned column segments ...] [TOC]
//
// The header carries magic, format version, an endianness marker, the
// file size, the TOC location, and an FNV-1a 64 checksum over
// everything after the header. The TOC holds the name dictionary
// refs, the per-document directory (one entry per document: name,
// blob ref, 13 node-table column refs, element-index refs), and the
// region-index directory (doc, config, 5 column refs each).
#ifndef STANDOFF_STORAGE_SNAPSHOT_H_
#define STANDOFF_STORAGE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "standoff/region_index.h"
#include "storage/document_store.h"
#include "storage/sharded_store.h"

namespace standoff {
namespace storage {

/// Version 2: column segments are 64-byte aligned (was 8) so borrowed
/// columns sit on cache-line/vector-register boundaries for the SIMD
/// merge kernels. Version 3: a region index persists 5 column segments
/// (the per-id first-region columns are gone). Older files are rejected
/// with a version error, per the DESIGN §11 rule that any layout change
/// bumps the version.
inline constexpr uint32_t kSnapshotVersion = 3;

struct SnapshotWriteOptions {
  /// One RegionIndex per (document, config) is built — reusing the
  /// document's preloaded index when fingerprints match — and embedded.
  std::vector<so::StandoffConfig> configs{so::StandoffConfig{}};
  /// Parallelizes the per-(document, config) region-index builds; null
  /// (or zero-worker) pool builds on the calling thread.
  ThreadPool* pool = nullptr;
  /// A caller-supplied index to embed INSTEAD of building/reusing one,
  /// keyed by (doc, ConfigFingerprint). Compaction passes its merged
  /// (base ⊎ delta) indexes here so the written generation reflects the
  /// deltas without the store's node tables changing. Overrides are
  /// consulted first; (doc, config) pairs without one take the normal
  /// preloaded-or-build path.
  struct IndexOverride {
    DocId doc = 0;
    std::string fingerprint;
    std::shared_ptr<const so::RegionIndex> index;
  };
  std::vector<IndexOverride> index_overrides;
};

/// Serializes `store` to `path` — durably and atomically: bytes are
/// written to "<path>.tmp", fsync'd, renamed over the final name, and
/// the parent directory is fsync'd. A crash or full disk mid-save
/// leaves the previous generation at `path` untouched; a reader never
/// sees a truncated file under the final name. shard_count is
/// preserved.
Status SaveSnapshot(const ShardedStore& store, const std::string& path,
                    const SnapshotWriteOptions& options = {});

/// DocumentStore convenience form; saved with shard_count = 1.
Status SaveSnapshot(const DocumentStore& store, const std::string& path,
                    const SnapshotWriteOptions& options = {});

struct SnapshotOpenOptions {
  /// Verify the whole-file checksum before trusting any bytes. One
  /// linear pass over the mapping; disable only for benchmarks that
  /// want to isolate the pure mapping cost.
  bool verify_checksum = true;
};

/// An open snapshot. The file mapping, the store built over it, and
/// the preloaded region indexes live in one refcounted resource block:
/// this object holds a reference, and so does every
/// std::shared_ptr<const ShardedStore> handed out by shared_store().
/// Destroying the Snapshot while such a reference (or a preloaded
/// index shared_ptr copied out of a Document) is still live is safe —
/// the mapping is unmapped only when the last reference drops. That is
/// the hot-swap drain contract: publish the new generation's shared
/// store, destroy the old Snapshot, and in-flight queries finish over
/// the old mapping before it closes.
///
/// Raw references obtained through sharded_store()/store() are NOT
/// keepalives; they are valid only while this object (or a shared
/// store pointer) lives.
class Snapshot {
 public:
  static StatusOr<std::unique_ptr<Snapshot>> Open(
      const std::string& path, const SnapshotOpenOptions& options = {});

  ~Snapshot() = default;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// The snapshot-backed store (columns borrow from the mapping).
  const ShardedStore& sharded_store() const { return *store_; }
  const DocumentStore& store() const { return store_->store(); }
  uint32_t shard_count() const { return store_->shard_count(); }

  /// Shared ownership of the store: copies keep the store, its
  /// preloaded indexes, AND the file mapping alive after this Snapshot
  /// is gone.
  std::shared_ptr<const ShardedStore> shared_store() const { return store_; }

  size_t file_size() const { return file_size_; }
  size_t region_index_count() const { return region_index_count_; }

 private:
  Snapshot() = default;

  std::shared_ptr<ShardedStore> store_;
  size_t file_size_ = 0;
  size_t region_index_count_ = 0;
};

}  // namespace storage
}  // namespace standoff

#endif  // STANDOFF_STORAGE_SNAPSHOT_H_
