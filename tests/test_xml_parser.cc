// The XML front end as the store sees it: DocumentStore::AddDocumentText
// shreds tokenizer events straight into the columnar NodeTable, so the
// parser's well-formedness rules and entity handling are pinned here
// through the node table they produce.
#include <string>
#include <string_view>
#include <vector>

#include "storage/document_store.h"
#include "tests/harness.h"

using namespace standoff;
using storage::NodeKind;
using storage::Pre;

namespace {

/// Shreds `xml` as the store's only document; the table's node 0 is the
/// document node and node 1 the root element.
const storage::NodeTable& Shred(storage::DocumentStore* store,
                                std::string_view xml) {
  auto doc = store->AddDocumentText("t.xml", xml);
  CHECK_OK(doc);
  CHECK_EQ(store->document_count(), 1u);
  return store->table(0);
}

std::string_view Name(const storage::DocumentStore& store, Pre pre) {
  return store.names().name(store.table(0).name(pre));
}

/// The attribute's value; "" when the element has none of that name.
std::string_view Attr(const storage::DocumentStore& store, Pre pre,
                      std::string_view name) {
  const storage::NameId id = store.names().Lookup(name);
  if (id == storage::kInvalidName) return {};
  return store.table(0).FindAttribute(pre, id).second;
}

/// Children of `parent` in document order.
std::vector<Pre> Children(const storage::NodeTable& table, Pre parent) {
  std::vector<Pre> out;
  const Pre end = parent + table.subtree_size(parent);
  for (Pre pre = parent + 1; pre <= end; ++pre) {
    if (table.parent(pre) == parent) out.push_back(pre);
  }
  return out;
}

}  // namespace

static void TestBasicTree() {
  storage::DocumentStore store;
  const storage::NodeTable& table = Shred(&store, R"(<?xml version="1.0"?>
<root a="1">
  <!-- comment -->
  <child b='two'>text &amp; more</child>
  <empty/>
</root>)");
  // document, root, child, its text, empty: whitespace-only text and
  // the comment take no pre numbers.
  CHECK_EQ(table.size(), 5u);
  CHECK(table.kind(0) == NodeKind::kDocument);
  CHECK(table.IsElement(1));
  CHECK_EQ(Name(store, 1), std::string_view("root"));
  CHECK_EQ(Attr(store, 1, "a"), std::string_view("1"));
  CHECK_EQ(table.subtree_size(1), 3u);
  const std::vector<Pre> children = Children(table, 1);
  CHECK_EQ(children.size(), 2u);
  if (children.size() == 2) {
    CHECK_EQ(Name(store, children[0]), std::string_view("child"));
    CHECK_EQ(Name(store, children[1]), std::string_view("empty"));
    CHECK_EQ(table.subtree_size(children[1]), 0u);
  }
  CHECK_EQ(Attr(store, 2, "b"), std::string_view("two"));
  CHECK_EQ(table.subtree_size(2), 1u);
  CHECK(table.kind(3) == NodeKind::kText);
  CHECK_EQ(table.parent(3), 2u);
  CHECK_EQ(table.text(3), std::string_view("text & more"));
  CHECK_EQ(Attr(store, 2, "a"), std::string_view(""));
}

static void TestEntities() {
  storage::DocumentStore store;
  const storage::NodeTable& table =
      Shred(&store, "<r t=\"&lt;&gt;&quot;&apos;\">&#65;&#x42;</r>");
  CHECK_EQ(Attr(store, 1, "t"), std::string_view("<>\"'"));
  CHECK_EQ(table.size(), 3u);
  CHECK(table.kind(2) == NodeKind::kText);
  CHECK_EQ(table.text(2), std::string_view("AB"));
}

static void TestCdata() {
  storage::DocumentStore store;
  const storage::NodeTable& table =
      Shred(&store, "<r><![CDATA[a <b> & c]]></r>");
  CHECK_EQ(table.size(), 3u);
  CHECK_EQ(table.text(2), std::string_view("a <b> & c"));
}

static void TestErrors() {
  const char* const kMalformed[] = {
      "<a><b></a></b>",
      "<a>",
      "plain text",
      "<a/><b/>",
      "<a attr></a>",
      "<a x=\"unterminated></a>",
      "<a>&bogus;</a>",
      "",
      // Malformed character references: empty, NUL, beyond Unicode.
      "<a>&#x;</a>",
      "<a>&#;</a>",
      "<a>&#0;</a>",
      "<a>&#4294967296;</a>",
      "<a>&#x110000;</a>",
      // Character data after the root element.
      "<a/>junk",
  };
  storage::DocumentStore store;
  for (const char* xml : kMalformed) {
    const bool ok = store.AddDocumentText("bad.xml", xml).ok();
    if (ok) std::fprintf(stderr, "  accepted malformed input: %s\n", xml);
    CHECK(!ok);
  }
  // A rejected document leaves nothing behind.
  CHECK_EQ(store.document_count(), 0u);
}

static void TestDoctypeAndPi() {
  storage::DocumentStore store;
  const storage::NodeTable& table = Shred(
      &store, "<!DOCTYPE site SYSTEM \"auction.dtd\">\n<?pi data?>\n<site/>");
  CHECK_EQ(table.size(), 2u);
  CHECK_EQ(Name(store, 1), std::string_view("site"));
}

int main() {
  RUN_TEST(TestBasicTree);
  RUN_TEST(TestEntities);
  RUN_TEST(TestCdata);
  RUN_TEST(TestErrors);
  RUN_TEST(TestDoctypeAndPi);
  TEST_MAIN();
}
