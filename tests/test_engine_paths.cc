// Navigation, predicates, count(), '+', and FLWOR over nested documents.
#include "storage/document_store.h"
#include "tests/harness.h"
#include "xquery/engine.h"

using namespace standoff;
using algebra::Item;

namespace {

const char* const kDoc = R"(<library>
  <shelf n="top">
    <book id="b1" lang="en"><title>Alpha</title></book>
    <book id="b2" lang="de"><title>Beta</title></book>
  </shelf>
  <shelf n="bottom">
    <book id="b3" lang="en"><title>Gamma</title></book>
  </shelf>
</library>)";

struct Fixture {
  storage::DocumentStore store;
  xquery::Engine engine;
  Fixture() : engine(&store) { CHECK_OK(store.AddDocumentText("d.xml", kDoc)); }

  size_t Count(const std::string& query) {
    auto r = engine.Evaluate(query);
    CHECK_OK(r);
    if (!r.ok()) return static_cast<size_t>(-1);
    return r->items.size();
  }

  int64_t Int(const std::string& query) {
    auto r = engine.Evaluate(query);
    CHECK_OK(r);
    if (!r.ok() || r->items.size() != 1) return -1;
    return r->items[0].int_value();
  }
};

}  // namespace

static void TestChildAndDescendant() {
  Fixture fx;
  CHECK_EQ(fx.Count("/library"), 1u);
  CHECK_EQ(fx.Count("/library/shelf"), 2u);
  CHECK_EQ(fx.Count("/library/shelf/book"), 3u);
  CHECK_EQ(fx.Count("/library/book"), 0u);  // not a child
  CHECK_EQ(fx.Count("//book"), 3u);
  CHECK_EQ(fx.Count("//title"), 3u);
  CHECK_EQ(fx.Count("/library/descendant::book"), 3u);
  CHECK_EQ(fx.Count("//shelf/child::book"), 3u);
  CHECK_EQ(fx.Count("//book/self::book"), 3u);
  CHECK_EQ(fx.Count("/library/shelf/*"), 3u);
  CHECK_EQ(fx.Count("//nonexistent"), 0u);
}

static void TestPredicates() {
  Fixture fx;
  CHECK_EQ(fx.Count("//book[@lang = \"en\"]"), 2u);
  CHECK_EQ(fx.Count("//book[@lang = \"fr\"]"), 0u);
  CHECK_EQ(fx.Count("//book[@lang]"), 3u);
  CHECK_EQ(fx.Count("//book[@nope]"), 0u);
  CHECK_EQ(fx.Count("//shelf[@n = \"top\"]/book"), 2u);
  CHECK_EQ(fx.Count("//book[@id = \"b2\"][@lang = \"de\"]"), 1u);
}

static void TestCountAndAdd() {
  Fixture fx;
  CHECK_EQ(fx.Int("count(//book)"), int64_t{3});
  CHECK_EQ(fx.Int("count(//book) + count(//shelf)"), int64_t{5});
  CHECK_EQ(fx.Int("count(//missing)"), int64_t{0});
}

static void TestFlwor() {
  Fixture fx;
  // One count per shelf, in order.
  auto r = fx.engine.Evaluate(
      "for $s in /library/shelf return count($s/book)");
  CHECK_OK(r);
  CHECK_EQ(r->items.size(), 2u);
  CHECK_EQ(r->items[0].int_value(), int64_t{2});
  CHECK_EQ(r->items[1].int_value(), int64_t{1});
  // Bare variable and nested loops.
  CHECK_EQ(fx.Count("for $b in //book return $b"), 3u);
  auto nested = fx.engine.Evaluate(
      "for $s in /library/shelf return for $b in $s/book return "
      "count($b/title)");
  CHECK_OK(nested);
  CHECK_EQ(nested->items.size(), 3u);
  for (const Item& item : nested->items) {
    CHECK_EQ(item.int_value(), int64_t{1});
  }
  // Outer variable visible in the inner loop.
  auto outer_var = fx.engine.Evaluate(
      "for $s in /library/shelf return for $b in $s/book return "
      "count($s/book)");
  CHECK_OK(outer_var);
  CHECK_EQ(outer_var->items.size(), 3u);
  CHECK_EQ(outer_var->items[0].int_value(), int64_t{2});
  CHECK_EQ(outer_var->items[2].int_value(), int64_t{1});
}

static void TestResultItems() {
  Fixture fx;
  auto r = fx.engine.Evaluate("//book[@id = \"b2\"]/title");
  CHECK_OK(r);
  CHECK_EQ(r->items.size(), 1u);
  CHECK(r->items[0].is_node());
  const algebra::NodeId node = r->items[0].stored_node();
  CHECK_EQ(fx.store.names().name(fx.store.table(node.doc).name(node.pre)),
           std::string_view("title"));
}

static void TestErrors() {
  Fixture fx;
  CHECK(!fx.engine.Evaluate("").ok());
  CHECK(!fx.engine.Evaluate("for $x in").ok());
  CHECK(!fx.engine.Evaluate("$undefined/book").ok());
  CHECK(!fx.engine.Evaluate("//book[position() = 1]").ok());
  CHECK(!fx.engine.Evaluate("count(//book").ok());
  // Relative paths without a variable root are rejected, not silently
  // evaluated from the document root.
  CHECK(!fx.engine.Evaluate("book").ok());
  CHECK(!fx.engine.Evaluate("for $s in /library/shelf return book").ok());
  // '+' rejects non-numeric and per-iteration-misaligned operands.
  CHECK(!fx.engine.Evaluate("//book + 1").ok());
  CHECK(!fx.engine
             .Evaluate("for $s in /library/shelf return $s/book + 1")
             .ok());
  // A sequence is all nodes or all atomics: a step on an atomic, or '+'
  // with a node operand, is a type error whatever the axis.
  CHECK(!fx.engine.Evaluate("for $n in count(//book) return $n/title").ok());
  CHECK(!fx.engine
             .Evaluate("for $n in count(//book) return $n/select-narrow::title")
             .ok());
  CHECK(!fx.engine.Evaluate("count(//book) + //book").ok());
}

int main() {
  RUN_TEST(TestChildAndDescendant);
  RUN_TEST(TestPredicates);
  RUN_TEST(TestCountAndAdd);
  RUN_TEST(TestFlwor);
  RUN_TEST(TestResultItems);
  RUN_TEST(TestErrors);
  TEST_MAIN();
}
