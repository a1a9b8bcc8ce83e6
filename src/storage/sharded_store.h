// ShardedStore: a DocumentStore partitioned into N shards. Documents
// are assigned round-robin by DocId (doc % shard_count), the name table
// stays shared so NameIds compare across shards, and each shard's
// per-document ElementIndex is built at load time as in DocumentStore.
// The shard map is recorded for ingest and snapshots (a snapshot saves
// its shard count); queries do not read it: one engine serves every
// document of a store.
#ifndef STANDOFF_STORAGE_SHARDED_STORE_H_
#define STANDOFF_STORAGE_SHARDED_STORE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/document_store.h"

namespace standoff {
namespace storage {

class ShardedStore : public StoreView {
 public:
  /// `shard_count` must be >= 1; it is fixed for the store's lifetime.
  explicit ShardedStore(uint32_t shard_count)
      : shard_docs_(shard_count == 0 ? 1 : shard_count) {}

  /// Parses and shreds like DocumentStore::AddDocumentText, then files
  /// the new document under shard `doc % shard_count`.
  StatusOr<DocId> AddDocumentText(std::string name, std::string_view xml_text);

  /// Takes ownership of an externally shredded document and files it
  /// under its shard — the adoption path parallel ingestion and
  /// snapshot open use.
  DocId AdoptDocument(std::unique_ptr<Document> doc);

  Status SetBlob(DocId doc, std::string blob);

  uint32_t shard_count() const override {
    return static_cast<uint32_t>(shard_docs_.size());
  }
  uint32_t shard_of(DocId doc) const override { return doc % shard_count(); }

  /// The ids of this shard's documents, in document (load) order.
  const std::vector<DocId>& shard_docs(uint32_t shard) const {
    return shard_docs_[shard];
  }

  /// The underlying store: shared name table, node tables, per-document
  /// element indexes. Const access is thread-safe once loading is done.
  const DocumentStore& store() const { return store_; }
  size_t document_count() const override { return store_.document_count(); }
  const NameTable& names() const override { return store_.names(); }
  const Document& document(DocId doc) const override {
    return store_.document(doc);
  }
  const NodeTable& table(DocId doc) const override {
    return store_.table(doc);
  }

  /// Substrate hook for ingestion/snapshot (name interning, adopted
  /// documents). Query-layer code must use the const accessor above.
  DocumentStore* mutable_store() { return &store_; }

  /// Shared ownership of external bytes this store's columns borrow
  /// from (a snapshot's file mapping). Snapshot::Open sets this so any
  /// holder of a shared ShardedStore transitively keeps the mapping
  /// alive — the hot-swap drain guarantee: the last in-flight query to
  /// release the store releases the mapping.
  void set_keepalive(std::shared_ptr<const void> keepalive) {
    keepalive_ = std::move(keepalive);
  }

 private:
  // Declared before store_ so it is destroyed last: the store's
  // borrowed columns never outlive the mapped bytes behind them.
  std::shared_ptr<const void> keepalive_;
  DocumentStore store_;
  std::vector<std::vector<DocId>> shard_docs_;
};

}  // namespace storage
}  // namespace standoff

#endif  // STANDOFF_STORAGE_SHARDED_STORE_H_
