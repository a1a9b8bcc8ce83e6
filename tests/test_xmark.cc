#include "standoff/region_index.h"
#include "storage/document_store.h"
#include "tests/harness.h"
#include "tests/oracle.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xmark/standoff_transform.h"

using namespace standoff;

static void TestDeterminismAndScaling() {
  xmark::XmarkOptions options;
  options.scale = 0.002;
  std::string a = xmark::GenerateXmark(options);
  std::string b = xmark::GenerateXmark(options);
  CHECK(a == b);
  options.scale = 0.004;
  std::string big = xmark::GenerateXmark(options);
  CHECK(big.size() > a.size() * 3 / 2);
}

static void TestGeneratedDocumentShape() {
  xmark::XmarkOptions options;
  options.scale = 0.002;
  std::string doc_text = xmark::GenerateXmark(options);
  storage::DocumentStore store;
  auto id = store.AddDocumentText("xmark.xml", doc_text);
  CHECK_OK(id);
  const storage::ElementIndex& index = store.document(0).element_index;
  auto count = [&](const char* name) {
    return index.Lookup(store.names().Lookup(name)).size();
  };
  CHECK_EQ(count("site"), 1u);
  CHECK_EQ(count("regions"), 1u);
  CHECK(count("open_auction") >= 20);
  CHECK(count("person") >= 40);
  CHECK(count("item") >= 40);
  CHECK(count("bidder") >= count("open_auction"));  // >= 1 bidder each
  CHECK(count("emailaddress") == count("person"));
  // Q1 needs person0.
  bool found_person0 = false;
  for (storage::Pre pre :
       index.Lookup(store.names().Lookup("person"))) {
    auto [found, value] =
        store.table(0).FindAttribute(pre, store.names().Lookup("id"));
    if (found && value == "person0") found_person0 = true;
  }
  CHECK(found_person0);
}

static void TestStandoffTransform() {
  xmark::XmarkOptions options;
  options.scale = 0.002;
  std::string nested = xmark::GenerateXmark(options);
  auto standoff_doc = xmark::ToStandoff(nested);
  CHECK_OK(standoff_doc);
  CHECK(!standoff_doc->blob.empty());
  CHECK(!standoff_doc->xml.empty());

  storage::DocumentStore nested_store, so_store;
  CHECK_OK(nested_store.AddDocumentText("n.xml", nested));
  CHECK_OK(so_store.AddDocumentText("s.xml", standoff_doc->xml));

  // Same element population, flattened: every nested element becomes one
  // annotation; the standoff doc has no text nodes.
  size_t nested_elements = 0;
  const storage::NodeTable& ntable = nested_store.table(0);
  for (storage::Pre pre = 0; pre < ntable.size(); ++pre) {
    if (ntable.IsElement(pre)) ++nested_elements;
  }
  const storage::NodeTable& stable = so_store.table(0);
  size_t so_elements = 0;
  for (storage::Pre pre = 0; pre < stable.size(); ++pre) {
    if (stable.IsElement(pre)) ++so_elements;
    CHECK(stable.kind(pre) != storage::NodeKind::kText);
  }
  CHECK_EQ(so_elements, nested_elements);
  CHECK_EQ(stable.subtree_size(1), so_elements - 1);  // root holds all

  // Every annotation parses into the region index with laminar,
  // strictly-nested boundaries mirroring the original tree.
  auto index = so::RegionIndex::Build(
      stable, so::Resolve(so::StandoffConfig{}, so_store.names()));
  CHECK_OK(index);
  CHECK_EQ(index->size(), so_elements);
  for (const so::RegionEntry& e : test::Rows(*index)) {
    CHECK(e.start < e.end);  // marker bytes forbid zero-width regions
  }
}

static void TestTransformSmallExample() {
  auto doc = xmark::ToStandoff("<a x=\"1\"><b>hi</b><c/></a>");
  CHECK_OK(doc);
  // Blob: open(a) open(b) "hi" close(b) open(c) close(c) close(a).
  CHECK_EQ(doc->blob, std::string("\n\nhi\n\n\n\n"));
  storage::DocumentStore store;
  CHECK_OK(store.AddDocumentText("so.xml", doc->xml));
  const storage::NodeTable& table = store.table(0);
  const auto name = [&](storage::Pre pre) {
    return store.names().name(table.name(pre));
  };
  const auto attr = [&](storage::Pre pre, std::string_view attr_name) {
    return table.FindAttribute(pre, store.names().Lookup(attr_name)).second;
  };
  // Flat: the root element holds one empty element per nested node.
  CHECK_EQ(table.size(), 4u);
  CHECK_EQ(name(1), std::string_view("a"));
  CHECK_EQ(attr(1, "x"), std::string_view("1"));
  CHECK_EQ(attr(1, "start"), std::string_view("0"));
  CHECK_EQ(attr(1, "end"), std::string_view("7"));
  CHECK_EQ(table.subtree_size(1), 2u);
  CHECK_EQ(name(2), std::string_view("b"));
  CHECK_EQ(table.parent(2), 1u);
  CHECK_EQ(table.subtree_size(2), 0u);
  CHECK_EQ(attr(2, "start"), std::string_view("1"));
  CHECK_EQ(attr(2, "end"), std::string_view("4"));
  CHECK_EQ(name(3), std::string_view("c"));
  CHECK_EQ(table.parent(3), 1u);
  CHECK_EQ(attr(3, "start"), std::string_view("5"));
  CHECK_EQ(attr(3, "end"), std::string_view("6"));
}

static void TestQuerySet() {
  const auto& queries = xmark::BenchmarkQueries();
  CHECK_EQ(queries.size(), 4u);
  CHECK_EQ(queries[0].name, std::string("Q1"));
  CHECK_EQ(queries[1].name, std::string("Q2"));
  CHECK_EQ(queries[2].name, std::string("Q6"));
  CHECK_EQ(queries[3].name, std::string("Q7"));
  for (const auto& q : queries) {
    CHECK(q.nested != nullptr && q.nested[0] != '\0');
    CHECK(q.standoff != nullptr && q.standoff[0] != '\0');
  }
}

int main() {
  RUN_TEST(TestDeterminismAndScaling);
  RUN_TEST(TestGeneratedDocumentShape);
  RUN_TEST(TestStandoffTransform);
  RUN_TEST(TestTransformSmallExample);
  RUN_TEST(TestQuerySet);
  TEST_MAIN();
}
