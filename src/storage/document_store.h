// DocumentStore: owns shredded documents (columnar node tables), the
// shared name table, per-document element-name indexes, and optional
// out-of-line blobs (the flat text a StandOff document annotates).
#ifndef STANDOFF_STORAGE_DOCUMENT_STORE_H_
#define STANDOFF_STORAGE_DOCUMENT_STORE_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/node_table.h"
#include "storage/store_view.h"

namespace standoff {

namespace so {
class RegionIndex;  // standoff/region_index.h
}  // namespace so

namespace storage {

struct Document {
  /// Shared ownership of whatever this document's columns borrow from
  /// (a snapshot's file mapping). Null for documents that own their
  /// columns. Declared first so it is destroyed last — borrowed views
  /// below never outlive the bytes they point into.
  std::shared_ptr<const void> keepalive;

  std::string name;
  NodeTable table;
  ElementIndex element_index;
  std::string blob;  // StandOff base text; empty for nested documents

  /// Region indexes preloaded from a snapshot, keyed by the standoff
  /// config fingerprint (see so::ConfigFingerprint). The shared_ptrs
  /// alias the snapshot's resource block (mapping + index storage), so
  /// an entry copied out of this list keeps the bytes it borrows from
  /// mapped — even after the Snapshot object and this Document are
  /// gone. RegionIndexCache consults this list before rebuilding an
  /// index from attribute strings.
  std::vector<std::pair<std::string, std::shared_ptr<const so::RegionIndex>>>
      preloaded_indexes;
};

/// Parses and shreds `xml_text` into `*doc` against `*names` — the
/// single-document substrate AddDocumentText and the parallel ingester
/// share. Does NOT build the element index (callers do, once the final
/// name-id space is known).
Status ShredDocumentText(std::string_view xml_text, NameTable* names,
                         Document* doc);

class DocumentStore : public StoreView {
 public:
  /// Parses and shreds `xml_text` in a single pass; returns the new
  /// document's id. Whitespace-only text nodes are dropped.
  StatusOr<DocId> AddDocumentText(std::string name, std::string_view xml_text);

  Status SetBlob(DocId doc, std::string blob);

  /// Takes ownership of an externally shredded document (snapshot open,
  /// parallel ingestion). The document's NameIds must already be valid
  /// against this store's name table.
  DocId AdoptDocument(std::unique_ptr<Document> doc);

  const Document& document(DocId doc) const override { return *docs_[doc]; }
  const NodeTable& table(DocId doc) const override {
    return docs_[doc]->table;
  }
  const NameTable& names() const override { return names_; }
  size_t document_count() const override { return docs_.size(); }

  /// StoreView geometry: a DocumentStore is one shard holding every
  /// document.
  uint32_t shard_count() const override { return 1; }
  uint32_t shard_of(DocId) const override { return 0; }

  /// Substrate hook for the ingestion and snapshot subsystems, which
  /// intern (or borrow) names outside AddDocumentText. Query-layer code
  /// must use the const accessor above.
  NameTable* mutable_names() { return &names_; }
  Document* mutable_document(DocId doc) { return docs_[doc].get(); }

 private:
  NameTable names_;
  std::vector<std::unique_ptr<Document>> docs_;
};

}  // namespace storage
}  // namespace standoff

#endif  // STANDOFF_STORAGE_DOCUMENT_STORE_H_
