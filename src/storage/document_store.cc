#include "storage/document_store.h"

#include <algorithm>

#include "common/string_util.h"
#include "xml/tokenizer.h"

namespace standoff {
namespace storage {

NameId NameTable::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const NameId id = static_cast<NameId>(views_.size());
  owned_.push_back(std::make_unique<std::string>(name));
  views_.push_back(std::string_view(*owned_.back()));
  ids_.emplace(views_.back(), id);
  return id;
}

NameId NameTable::Lookup(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kInvalidName : it->second;
}

void ElementIndex::Build(const NodeTable& table, size_t name_count) {
  // Two-pass counting build into one flat column: count per name,
  // prefix-sum into begin offsets, then fill. Exactly three
  // allocations regardless of name_count, and the planner's stats
  // passes scan one contiguous array per name.
  const Pre n = static_cast<Pre>(table.size());
  std::vector<uint32_t> offsets(name_count + 1, 0);
  for (Pre pre = 0; pre < n; ++pre) {
    if (table.IsElement(pre)) ++offsets[table.name(pre) + 1];
  }
  for (size_t i = 1; i <= name_count; ++i) offsets[i] += offsets[i - 1];
  std::vector<Pre> pres(offsets[name_count]);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (Pre pre = 0; pre < n; ++pre) {
    if (table.IsElement(pre)) pres[cursor[table.name(pre)]++] = pre;
  }
  offsets_.Adopt(std::move(offsets));
  pres_.Adopt(std::move(pres));
}

/// Streams tokenizer events straight into the columnar node table —
/// one pass, no intermediate tree.
class Shredder {
 public:
  Shredder(NodeTable* table, NameTable* names)
      : table_(table), names_(names) {}

  Status Run(std::string_view xml_text) {
    xml::Tokenizer tokenizer(xml_text);
    // Rough reservation: one node per ~24 input bytes keeps the column
    // growth amortized without overcommitting on text-heavy input.
    const size_t hint = xml_text.size() / 24 + 8;
    Reserve(hint);
    AppendNode(NodeKind::kDocument, kInvalidName, /*parent=*/0, /*level=*/0);
    open_.push_back(0);
    bool seen_root = false;

    while (true) {
      StatusOr<xml::TokenType> token = tokenizer.Next();
      if (!token.ok()) return token.status();
      switch (*token) {
        case xml::TokenType::kEnd: {
          if (open_.size() > 1) {
            return Status::Invalid("xml parse error: unclosed element");
          }
          if (!seen_root) {
            return Status::Invalid("xml parse error: no root element");
          }
          CloseNode(0);  // document node spans everything
          table_->attr_begins_.push_back(
              static_cast<uint32_t>(table_->attr_names_.size()));
          return Status::OK();
        }
        case xml::TokenType::kStartElement: {
          if (open_.size() == 1) {
            if (seen_root) {
              return Status::Invalid("xml parse error: multiple roots");
            }
            seen_root = true;
          }
          const Pre pre = AppendNode(
              NodeKind::kElement, names_->Intern(tokenizer.name()),
              open_.back(), static_cast<uint16_t>(open_.size()));
          for (const xml::Attr& attr : tokenizer.attrs()) {
            table_->attr_names_.push_back(names_->Intern(attr.name));
            table_->attr_value_offsets_.push_back(
                static_cast<uint32_t>(table_->attr_values_.size()));
            table_->attr_value_lengths_.push_back(
                static_cast<uint32_t>(attr.value.size()));
            AppendBytes(attr.value, &table_->attr_values_);
          }
          if (tokenizer.self_closing()) {
            CloseNode(pre);
          } else {
            open_names_.push_back(tokenizer.name());
            open_.push_back(pre);
          }
          break;
        }
        case xml::TokenType::kEndElement: {
          if (open_.size() <= 1 || open_names_.back() != tokenizer.name()) {
            return Status::Invalid("xml parse error: mismatched </" +
                                   std::string(tokenizer.name()) + ">");
          }
          CloseNode(open_.back());
          open_.pop_back();
          open_names_.pop_back();
          break;
        }
        case xml::TokenType::kText: {
          if (TrimWhitespace(tokenizer.text()).empty()) break;
          if (open_.size() == 1) {
            return Status::Invalid(
                "xml parse error: character data outside the root element");
          }
          const Pre pre = AppendNode(
              NodeKind::kText, kInvalidName, open_.back(),
              static_cast<uint16_t>(open_.size()));
          table_->text_offsets_[pre] =
              static_cast<uint32_t>(table_->text_buffer_.size());
          table_->text_lengths_[pre] =
              static_cast<uint32_t>(tokenizer.text().size());
          AppendBytes(tokenizer.text(), &table_->text_buffer_);
          CloseNode(pre);
          break;
        }
      }
    }
  }

 private:
  void Reserve(size_t n) {
    table_->kinds_.reserve(n);
    table_->names_.reserve(n);
    table_->parents_.reserve(n);
    table_->sizes_.reserve(n);
    table_->levels_.reserve(n);
    table_->attr_begins_.reserve(n + 1);
    table_->text_offsets_.reserve(n);
    table_->text_lengths_.reserve(n);
  }

  Pre AppendNode(NodeKind kind, NameId name, Pre parent, uint16_t level) {
    const Pre pre = static_cast<Pre>(table_->kinds_.size());
    table_->kinds_.push_back(kind);
    table_->names_.push_back(name);
    table_->parents_.push_back(parent);
    table_->sizes_.push_back(0);
    table_->levels_.push_back(level);
    table_->attr_begins_.push_back(
        static_cast<uint32_t>(table_->attr_names_.size()));
    table_->text_offsets_.push_back(0);
    table_->text_lengths_.push_back(0);
    return pre;
  }

  void CloseNode(Pre pre) {
    table_->sizes_[pre] = static_cast<Pre>(table_->kinds_.size()) - pre - 1;
  }

  NodeTable* table_;
  NameTable* names_;
  std::vector<Pre> open_;
  // Views into the input being shredded (alive for the whole Run call).
  std::vector<std::string_view> open_names_;
};

void NodeTable::RemapNames(Span<NameId> remap) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] != kInvalidName) names_[i] = remap[names_[i]];
  }
  for (size_t i = 0; i < attr_names_.size(); ++i) {
    attr_names_[i] = remap[attr_names_[i]];
  }
}

Status ShredDocumentText(std::string_view xml_text, NameTable* names,
                         Document* doc) {
  Shredder shredder(&doc->table, names);
  return shredder.Run(xml_text);
}

StatusOr<DocId> DocumentStore::AddDocumentText(std::string name,
                                               std::string_view xml_text) {
  auto doc = std::make_unique<Document>();
  doc->name = std::move(name);
  STANDOFF_RETURN_IF_ERROR(ShredDocumentText(xml_text, &names_, doc.get()));
  doc->element_index.Build(doc->table, names_.size());
  const DocId id = static_cast<DocId>(docs_.size());
  docs_.push_back(std::move(doc));
  return id;
}

DocId DocumentStore::AdoptDocument(std::unique_ptr<Document> doc) {
  const DocId id = static_cast<DocId>(docs_.size());
  docs_.push_back(std::move(doc));
  return id;
}

Status DocumentStore::SetBlob(DocId doc, std::string blob) {
  if (doc >= docs_.size()) {
    return Status::NotFound("no document " + std::to_string(doc));
  }
  docs_[doc]->blob = std::move(blob);
  return Status::OK();
}

}  // namespace storage
}  // namespace standoff
