// StoreView: the one read-side interface over every store shape the
// engine can run against — an in-memory DocumentStore, a round-robin
// ShardedStore, a snapshot-backed store (whose columns borrow from an
// mmap), and the mutable base+delta view (storage/delta.h). The engine
// and the server program against this interface only, so neither
// special-cases a store type. One engine serves every document of a
// view whatever its shard; nothing on the query path reads the shard
// map.
//
// The interface is a frozen view: every method is const and must be
// safe to call concurrently once the underlying store has finished
// loading. Mutable stores publish IMMUTABLE views (DeltaStoreView) — a
// reader that pinned a view at admission sees one consistent
// (snapshot generation, delta sequence) pair for its whole query.
//
// The two delta hooks are how merge-on-read reaches the query layer
// without the query layer knowing about deltas: RegionIndexCache::Get
// asks the view for the document's delta run under the config
// fingerprint and, when one exists, serves a merged (base ⊎ delta)
// region index instead of the base one. Immutable stores inherit the
// defaults (no run, sequence 0) and pay nothing.
#ifndef STANDOFF_STORAGE_STORE_VIEW_H_
#define STANDOFF_STORAGE_STORE_VIEW_H_

#include <memory>
#include <string>

#include "storage/node_table.h"

namespace standoff {
namespace storage {

struct Document;   // storage/document_store.h
struct DeltaRun;   // storage/delta.h

class StoreView {
 public:
  virtual ~StoreView() = default;

  virtual const NameTable& names() const = 0;
  virtual size_t document_count() const = 0;
  virtual const Document& document(DocId doc) const = 0;
  virtual const NodeTable& table(DocId doc) const = 0;

  /// Sharding geometry: >= 1 shards, documents assigned by shard_of.
  /// Unsharded stores report one shard holding every document. Only
  /// perfbench's engine pick (xquery::BatchEngine) still reads these
  /// through the view; they go with it in a later benchmark change.
  virtual uint32_t shard_count() const = 0;
  virtual uint32_t shard_of(DocId doc) const = 0;

  /// The document's uncompacted delta run under a standoff-config
  /// fingerprint (so::ConfigFingerprint), or null when the view has no
  /// pending writes for that key. Runs are immutable once published.
  virtual std::shared_ptr<const DeltaRun> delta_run(
      DocId doc, const std::string& config_fingerprint) const {
    (void)doc;
    (void)config_fingerprint;
    return nullptr;
  }

  /// The delta sequence number this view was frozen at; 0 for
  /// immutable stores. Two views over the same base with equal
  /// sequences serve byte-identical reads, which is what lets
  /// connection engines rebuild only when (generation, sequence)
  /// changes.
  virtual uint64_t delta_sequence() const { return 0; }
};

}  // namespace storage
}  // namespace standoff

#endif  // STANDOFF_STORAGE_STORE_VIEW_H_
