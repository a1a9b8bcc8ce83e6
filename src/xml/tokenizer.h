// Single-pass pull tokenizer over a UTF-8 XML byte string. It is the one
// scanner behind the DocumentStore shredder and the StandOff transform,
// so both see identical documents. Token buffers are reused across
// Next() calls: no per-token heap traffic on the hot path.
//
// Zero-copy fast path: names are always served as string_view slices of
// the input, and text / attribute values are too whenever the raw bytes
// contain no entity reference and no CDATA splice — the dominant case.
// Only a value that actually needs unescaping (or a text run assembled
// from several segments) is materialized into reused scratch storage.
// All returned views are invalidated by the next Next() call.
//
// Supported: elements, attributes (single or double quoted), character
// data, the five predefined entities plus numeric character references,
// XML declarations, processing instructions, comments, CDATA sections,
// and an (ignored) DOCTYPE without an internal subset.
#ifndef STANDOFF_XML_TOKENIZER_H_
#define STANDOFF_XML_TOKENIZER_H_

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace standoff {
namespace xml {

struct Attr {
  std::string_view name;   // always a slice of the input
  std::string_view value;  // entity references resolved; slice of the
                           // input on the entity-free fast path
};

enum class TokenType {
  kStartElement,  // name() + attrs() + self_closing()
  kEndElement,    // name()
  kText,          // text(), entity references resolved
  kEnd,           // end of input
};

class Tokenizer {
 public:
  explicit Tokenizer(std::string_view input) : input_(input) {}

  StatusOr<TokenType> Next();

  std::string_view name() const { return name_; }
  const std::vector<Attr>& attrs() const { return attrs_; }
  bool self_closing() const { return self_closing_; }
  std::string_view text() const { return text_; }
  size_t position() const { return pos_; }

 private:
  Status SkipMisc();  // comments, PIs, XML decl, DOCTYPE
  Status ReadStartTag();
  Status ReadEndTag();
  StatusOr<bool> ReadText();  // false if the text was all markup/empty
  Status AppendUnescaped(std::string_view raw, std::string* out);
  Status ReadName(std::string_view* out);
  Status Error(const std::string& what) const;

  /// Scratch string for the next attribute value that needs unescaping.
  /// A deque keeps element addresses stable as it grows, so views into
  /// already-filled entries survive; entries (and their capacity) are
  /// reused across Next() calls.
  std::string* NextAttrScratch();

  std::string_view input_;
  size_t pos_ = 0;
  std::string_view name_;
  std::string_view text_;
  std::string text_scratch_;
  std::vector<Attr> attrs_;
  std::deque<std::string> attr_scratch_;
  size_t attr_scratch_used_ = 0;
  bool self_closing_ = false;
};

}  // namespace xml
}  // namespace standoff

#endif  // STANDOFF_XML_TOKENIZER_H_
