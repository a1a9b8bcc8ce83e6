// FLWOR result golden: the exact items of every Figure 6 query, and of
// three nested FLWOR queries, in nested and StandOff form under all
// four StandoffModes, over a fixed-seed XMark corpus. Each result is
// pinned by its item count and an FNV-1a checksum over (kind, doc, pre)
// or (kind, value) per item.
//
// The same queries over a three-document store (the corpus first, two
// other seeds after it) must return the single-document results: an
// absolute path binds the first document and no expression reaches
// another, so every node item carries doc 0.
#include <cstring>
#include <iterator>
#include <vector>

#include "storage/document_store.h"
#include "tests/harness.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xmark/standoff_transform.h"
#include "xquery/engine.h"

using namespace standoff;
using algebra::Item;

namespace {

constexpr double kScale = 0.003;
constexpr uint64_t kOtherSeeds[] = {7, 11};

// Sequences through for-loops: F1 returns the body's nodes per
// iteration; F2 and F3 read an outer variable inside an inner loop,
// F3 counting per inner iteration, so a wrong iteration number in the
// remapped variable changes its result.
const xmark::XmarkQuery kNodeQueries[] = {
    {"F1",
     "for $a in /site/open_auctions/open_auction "
     "return $a/bidder/personref",
     "for $a in /site/select-narrow::open_auctions"
     "/select-narrow::open_auction "
     "return $a/select-narrow::bidder/select-narrow::personref"},
    {"F2",
     "for $p in /site/people/person "
     "return for $i in $p/profile/interest return $p/name",
     "for $p in /site/select-narrow::people/select-narrow::person "
     "return for $i in $p/select-narrow::profile/select-narrow::interest "
     "return $p/select-narrow::name"},
    {"F3",
     "for $a in /site/open_auctions/open_auction "
     "return for $b in $a/bidder return count($a/bidder)",
     "for $a in /site/select-narrow::open_auctions"
     "/select-narrow::open_auction "
     "return for $b in $a/select-narrow::bidder "
     "return count($a/select-narrow::bidder)"},
};

struct Golden {
  const char* query;
  bool standoff;  // StandOff form over the transform, else nested form
  size_t items;
  uint64_t checksum;
};

// One entry per query and form; it holds under every StandoffMode.
const Golden kGolden[] = {
    {"Q1", false, 1, 0x7296276145ab0b03ull},
    {"Q1", true, 1, 0x8a3ddc070be58674ull},
    {"Q2", false, 36, 0x068179239d195624ull},
    {"Q2", true, 36, 0x068179239d195624ull},
    {"Q6", false, 1, 0x3046b62856b7060dull},
    {"Q6", true, 1, 0x3046b62856b7060dull},
    {"Q7", false, 1, 0xd9e476fe0de3e144ull},
    {"Q7", true, 1, 0xd9e476fe0de3e144ull},
    {"F1", false, 197, 0x8a55e2ff07052e8eull},
    {"F1", true, 197, 0xe27b4cafd8d04217ull},
    {"F2", false, 77, 0x407bd04f0707d87aull},
    {"F2", true, 77, 0xb07e13d88044c230ull},
    {"F3", false, 197, 0x5f3a8f2387a0bbefull},
    {"F3", true, 197, 0x5f3a8f2387a0bbefull},
};

const xquery::StandoffMode kModes[] = {
    xquery::StandoffMode::kUdfNoCandidates,
    xquery::StandoffMode::kUdfCandidates,
    xquery::StandoffMode::kBasicMergeJoin,
    xquery::StandoffMode::kLoopLifted,
};

class Fnv {
 public:
  void Add(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void AddValue(T value) {
    Add(&value, sizeof(value));
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

uint64_t Checksum(const algebra::QueryResult& result) {
  Fnv fnv;
  for (const Item& item : result.items) {
    fnv.AddValue(static_cast<uint8_t>(item.kind()));
    switch (item.kind()) {
      case Item::Kind::kNode:
        fnv.AddValue(item.stored_node().doc);
        fnv.AddValue(item.stored_node().pre);
        break;
      case Item::Kind::kInt:
        fnv.AddValue(item.int_value());
        break;
      case Item::Kind::kDouble: {
        uint64_t bits;
        const double value = item.double_value();
        std::memcpy(&bits, &value, sizeof(bits));
        fnv.AddValue(bits);
        break;
      }
      case Item::Kind::kString:
        fnv.Add(item.string_value().data(), item.string_value().size());
        break;
    }
  }
  return fnv.hash();
}

bool SameItems(const algebra::QueryResult& a, const algebra::QueryResult& b) {
  if (a.items.size() != b.items.size()) return false;
  for (size_t i = 0; i < a.items.size(); ++i) {
    const Item& x = a.items[i];
    const Item& y = b.items[i];
    if (x.kind() != y.kind()) return false;
    switch (x.kind()) {
      case Item::Kind::kNode:
        if (!(x.stored_node() == y.stored_node())) return false;
        break;
      case Item::Kind::kInt:
        if (x.int_value() != y.int_value()) return false;
        break;
      case Item::Kind::kDouble:
        if (x.double_value() != y.double_value()) return false;
        break;
      case Item::Kind::kString:
        if (x.string_value() != y.string_value()) return false;
        break;
    }
  }
  return true;
}

const char* QueryText(const Golden& golden) {
  std::vector<xmark::XmarkQuery> queries = xmark::BenchmarkQueries();
  queries.insert(queries.end(), std::begin(kNodeQueries),
                 std::end(kNodeQueries));
  for (const xmark::XmarkQuery& query : queries) {
    if (std::strcmp(query.name, golden.query) == 0) {
      return golden.standoff ? query.standoff : query.nested;
    }
  }
  return nullptr;
}

std::string Corpus(uint64_t seed, bool standoff) {
  xmark::XmarkOptions options;
  options.scale = kScale;
  options.seed = seed;
  std::string nested = xmark::GenerateXmark(options);
  if (!standoff) return nested;
  auto so_doc = xmark::ToStandoff(nested);
  CHECK_OK(so_doc);
  return so_doc.ok() ? so_doc->xml : std::string();
}

/// The single-document store over the corpus, and the three-document
/// store whose first document is the same corpus.
struct Stores {
  storage::DocumentStore one;
  storage::DocumentStore three;
  explicit Stores(bool standoff) {
    const std::string corpus = Corpus(xmark::XmarkOptions().seed, standoff);
    CHECK_OK(one.AddDocumentText("d0.xml", corpus));
    CHECK_OK(three.AddDocumentText("d0.xml", corpus));
    for (uint64_t seed : kOtherSeeds) {
      CHECK_OK(three.AddDocumentText("d" + std::to_string(seed) + ".xml",
                                     Corpus(seed, standoff)));
    }
  }
};

}  // namespace

static void TestGoldenResults() {
  // The extra documents must differ from the first, or a result read
  // from them could not be told apart.
  CHECK(Corpus(xmark::XmarkOptions().seed, false) !=
        Corpus(kOtherSeeds[0], false));
  for (bool standoff : {false, true}) {
    Stores stores(standoff);
    CHECK_EQ(stores.three.document_count(), 3u);
    for (const Golden& golden : kGolden) {
      if (golden.standoff != standoff) continue;
      const char* text = QueryText(golden);
      CHECK(text != nullptr);
      if (text == nullptr) continue;
      for (xquery::StandoffMode mode : kModes) {
        xquery::Engine one(&stores.one);
        xquery::Engine three(&stores.three);
        one.set_standoff_mode(mode);
        three.set_standoff_mode(mode);
        auto a = one.Evaluate(text);
        auto b = three.Evaluate(text);
        CHECK_OK(a);
        CHECK_OK(b);
        if (!a.ok() || !b.ok()) continue;
        const uint64_t sum = Checksum(*a);
        if (a->items.size() != golden.items || sum != golden.checksum) {
          std::fprintf(stderr, "  %s %s %s: %zu items, checksum 0x%016llx\n",
                       golden.query, standoff ? "standoff" : "nested",
                       xquery::StandoffModeName(mode), a->items.size(),
                       static_cast<unsigned long long>(sum));
        }
        CHECK_EQ(a->items.size(), golden.items);
        CHECK_EQ(sum, golden.checksum);
        CHECK(SameItems(*a, *b));
        for (const Item& item : b->items) {
          if (item.is_node()) CHECK_EQ(item.stored_node().doc, 0u);
        }
      }
    }
  }
}

int main() {
  RUN_TEST(TestGoldenResults);
  TEST_MAIN();
}
