// Differential pinning of the multi-predicate chain path: for every
// document shape (nested scene⊃speech⊃word, empty middle layer,
// zero-overlap, duplicate region sets, random irregular, XMark-derived)
// × operator pair × plan mode, EvaluateChain must be byte-identical to
// a brute-force oracle computed straight off the store — and memo-warm
// shard engines must be byte-identical to fresh sharing-off engines on
// every shard layout. A FLWOR cross-check ties the chain API to the
// engine's existing step-by-step evaluation.
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "standoff/plan.h"
#include "storage/sharded_store.h"
#include "tests/harness.h"
#include "xmark/generator.h"
#include "xmark/standoff_transform.h"
#include "xquery/engine.h"

using namespace standoff;
using so::IterMatch;
using so::StandoffOp;
using storage::Pre;

namespace {

// ---------------------------------------------------------------------------
// Document builders. All regions are start/end attributes; ids are the
// element names' ordinal so failures print readably.
// ---------------------------------------------------------------------------

std::string Elem(const std::string& name, int64_t start, int64_t end) {
  return "<" + name + " start=\"" + std::to_string(start) + "\" end=\"" +
         std::to_string(end) + "\"/>";
}

/// Laminar play: scenes tile [0, scenes*1000); speeches nest inside
/// scenes; words inside speeches. One scene is deliberately left
/// unannotated (no start/end) to exercise iteration alignment.
std::string NestedPlay(int scenes) {
  std::string xml = "<play>";
  for (int s = 0; s < scenes; ++s) {
    const int64_t base = s * 1000;
    if (s == 1) {
      xml += "<scene/>";  // annotation-less scene
    } else {
      xml += Elem("scene", base, base + 999);
    }
    for (int p = 0; p < 3; ++p) {
      const int64_t sp = base + p * 300 + 10;
      xml += Elem("speech", sp, sp + 250);
      for (int w = 0; w < 4; ++w) {
        xml += Elem("word", sp + 5 + w * 50, sp + 5 + w * 50 + 8);
      }
    }
  }
  xml += "</play>";
  return xml;
}

/// No speech elements at all: the middle layer is empty.
std::string EmptyMiddle() {
  std::string xml = "<play>";
  xml += Elem("scene", 0, 999);
  xml += Elem("word", 10, 20);
  xml += Elem("word", 500, 600);
  xml += "</play>";
  return xml;
}

/// Scenes and speeches in disjoint halves of the axis: zero overlap.
std::string ZeroOverlap() {
  std::string xml = "<play>";
  xml += Elem("scene", 0, 499);
  xml += Elem("scene", 500, 999);
  xml += Elem("speech", 10000, 10100);
  xml += Elem("speech", 20000, 20500);
  xml += Elem("word", 10010, 10020);
  xml += "</play>";
  return xml;
}

/// Speeches duplicate the scenes' coordinates exactly.
std::string DuplicateSets() {
  std::string xml = "<play>";
  for (int s = 0; s < 4; ++s) {
    xml += Elem("scene", s * 100, s * 100 + 99);
    xml += Elem("speech", s * 100, s * 100 + 99);
    for (int w = 0; w < 3; ++w) {
      xml += Elem("word", s * 100 + w * 20, s * 100 + w * 20 + 5);
    }
  }
  xml += "</play>";
  return xml;
}

/// Irregular soup: overlapping scenes, straddling speeches, words
/// everywhere (some outside everything).
std::string RandomSoup(uint64_t seed) {
  Rng rng(seed);
  std::string xml = "<play>";
  for (int s = 0; s < 8; ++s) {
    const int64_t start = rng.UniformRange(0, 3000);
    xml += Elem("scene", start, start + rng.UniformRange(100, 1500));
  }
  for (int p = 0; p < 25; ++p) {
    const int64_t start = rng.UniformRange(0, 4000);
    xml += Elem("speech", start, start + rng.UniformRange(5, 400));
  }
  for (int w = 0; w < 60; ++w) {
    const int64_t start = rng.UniformRange(0, 4500);
    xml += Elem("word", start, start + rng.UniformRange(0, 30));
  }
  xml += "</play>";
  return xml;
}

// ---------------------------------------------------------------------------
// The store-level oracle: name layers rebuilt by scanning the node
// table, chain evaluated by nested loops.
// ---------------------------------------------------------------------------

struct OracleLayer {
  std::vector<Pre> ids;  // sorted: the layer's candidate universe
  std::map<Pre, std::vector<std::pair<int64_t, int64_t>>> regions;
};

/// The layer of every annotated element named `name`; an empty name
/// means every annotated element (the any-name layer).
OracleLayer LayerByName(const storage::DocumentStore& store,
                        storage::DocId doc, const std::string& name) {
  OracleLayer layer;
  const bool any = name.empty();
  const storage::NameId name_id = store.names().Lookup(name);
  const storage::NodeTable& table = store.table(doc);
  auto index = so::RegionIndex::Build(
      table, so::Resolve(so::StandoffConfig{}, store.names()));
  if (!index.ok()) return layer;
  for (Pre id : index->annotated_ids()) {
    if (!any && (!table.IsElement(id) || table.name(id) != name_id)) continue;
    layer.ids.push_back(id);
    index->ForEachRegionOf(id, [&](int64_t s, int64_t e) {
      layer.regions[id].emplace_back(s, e);
    });
  }
  return layer;
}

std::vector<IterMatch> OracleChain(const std::vector<OracleLayer>& layers,
                                   const std::vector<StandoffOp>& ops) {
  const OracleLayer& context = layers[0];
  std::vector<IterMatch> out;
  for (uint32_t iter = 0; iter < context.ids.size(); ++iter) {
    std::vector<std::pair<int64_t, int64_t>> cur =
        context.regions.at(context.ids[iter]);
    std::vector<Pre> ids;
    for (size_t e = 0; e < ops.size(); ++e) {
      const OracleLayer& layer = layers[e + 1];
      const bool narrow = ops[e] == StandoffOp::kSelectNarrow ||
                          ops[e] == StandoffOp::kRejectNarrow;
      const bool reject = ops[e] == StandoffOp::kRejectNarrow ||
                          ops[e] == StandoffOp::kRejectWide;
      ids.clear();
      if (!cur.empty()) {
        for (Pre id : layer.ids) {
          bool hit = false;
          for (const auto& [s, en] : layer.regions.at(id)) {
            for (const auto& [cs, ce] : cur) {
              if (narrow ? (cs <= s && en <= ce) : (cs <= en && s <= ce)) {
                hit = true;
              }
            }
          }
          if (hit != reject) ids.push_back(id);
        }
      }
      cur.clear();
      for (Pre id : ids) {
        for (const auto& [s, en] : layer.regions.at(id)) {
          cur.emplace_back(s, en);
        }
      }
    }
    for (Pre id : ids) out.push_back(IterMatch{iter, id});
  }
  return out;
}

xquery::ChainQuery SceneSpeechWord(storage::DocId doc, StandoffOp op1,
                                   StandoffOp op2) {
  const auto axis = [](StandoffOp op) {
    switch (op) {
      case StandoffOp::kSelectNarrow: return xquery::Axis::kSelectNarrow;
      case StandoffOp::kSelectWide: return xquery::Axis::kSelectWide;
      case StandoffOp::kRejectNarrow: return xquery::Axis::kRejectNarrow;
      default: return xquery::Axis::kRejectWide;
    }
  };
  xquery::ChainQuery query;
  query.doc = doc;
  query.context_name = "scene";
  query.steps.push_back({axis(op1), false, "speech"});
  query.steps.push_back({axis(op2), false, "word"});
  return query;
}

}  // namespace

static void TestChainShapesAgainstOracle() {
  const std::pair<const char*, std::string> docs[] = {
      {"nested", NestedPlay(5)},
      {"empty-middle", EmptyMiddle()},
      {"zero-overlap", ZeroOverlap()},
      {"duplicate-sets", DuplicateSets()},
      {"soup-1", RandomSoup(1)},
      {"soup-2", RandomSoup(2)},
  };
  const std::pair<StandoffOp, StandoffOp> op_pairs[] = {
      {StandoffOp::kSelectNarrow, StandoffOp::kSelectNarrow},
      {StandoffOp::kSelectWide, StandoffOp::kSelectNarrow},
      {StandoffOp::kSelectNarrow, StandoffOp::kSelectWide},
      {StandoffOp::kRejectNarrow, StandoffOp::kSelectNarrow},
      {StandoffOp::kSelectNarrow, StandoffOp::kRejectWide},
  };
  for (const auto& [doc_name, xml] : docs) {
    storage::DocumentStore store;
    auto doc = store.AddDocumentText(doc_name, xml);
    CHECK_OK(doc);
    const std::vector<OracleLayer> layers{LayerByName(store, *doc, "scene"),
                                          LayerByName(store, *doc, "speech"),
                                          LayerByName(store, *doc, "word")};
    for (const auto& [op1, op2] : op_pairs) {
      const std::vector<IterMatch> oracle = OracleChain(layers, {op1, op2});
      for (so::PlanMode mode :
           {so::PlanMode::kAuto, so::PlanMode::kTopDown,
            so::PlanMode::kBottomUpLast}) {
        xquery::Engine engine(&store);
        engine.mutable_options()->plan_mode = mode;
        auto result = engine.EvaluateChain(SceneSpeechWord(*doc, op1, op2));
        CHECK_OK(result);
        if (!result.ok()) continue;
        CHECK(result->context_ids == layers[0].ids);
        if (!(result->matches == oracle)) {
          std::fprintf(stderr,
                       "  %s ops {%s,%s} mode %d: %zu vs oracle %zu "
                       "(plan: %s)\n",
                       doc_name, StandoffOpName(op1), StandoffOpName(op2),
                       static_cast<int>(mode), result->matches.size(),
                       oracle.size(), result->plan.Describe().c_str());
          CHECK(false);
        }
      }
    }
  }
}

static void TestXmarkDerivedChain() {
  // XMark-derived annotations: the standoff transform turns element
  // nesting into region containment, so open_auctions ⊃ open_auction
  // ⊃ bidder is a real three-layer chain on generated data.
  xmark::XmarkOptions options;
  options.scale = 0.003;
  auto so_doc = xmark::ToStandoff(xmark::GenerateXmark(options));
  CHECK_OK(so_doc);
  storage::DocumentStore store;
  auto doc = store.AddDocumentText("xmark.xml", so_doc->xml);
  CHECK_OK(doc);
  const std::vector<OracleLayer> layers{
      LayerByName(store, *doc, "open_auctions"),
      LayerByName(store, *doc, "open_auction"),
      LayerByName(store, *doc, "bidder")};
  const std::vector<IterMatch> oracle = OracleChain(
      layers, {StandoffOp::kSelectNarrow, StandoffOp::kSelectNarrow});
  CHECK(!oracle.empty());
  xquery::ChainQuery query;
  query.doc = *doc;
  query.context_name = "open_auctions";
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "open_auction"});
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "bidder"});
  for (so::PlanMode mode : {so::PlanMode::kAuto, so::PlanMode::kTopDown,
                            so::PlanMode::kBottomUpLast}) {
    xquery::Engine engine(&store);
    engine.mutable_options()->plan_mode = mode;
    auto result = engine.EvaluateChain(query);
    CHECK_OK(result);
    if (result.ok()) CHECK(result->matches == oracle);
  }
}

static void TestChainMatchesFlworPath() {
  // The chain API against the engine's existing step-by-step FLWOR
  // evaluation of the same query. Flattened in iteration order the two
  // must agree even with an unannotated scene in the middle (it binds
  // an iteration but can produce no matches).
  for (const std::string& xml :
       {NestedPlay(4), RandomSoup(3), DuplicateSets()}) {
    storage::DocumentStore store;
    auto doc = store.AddDocumentText("play.xml", xml);
    CHECK_OK(doc);
    xquery::Engine flwor(&store);
    auto reference = flwor.Evaluate(
        "for $s in //scene return "
        "$s/select-narrow::speech/select-narrow::word");
    CHECK_OK(reference);
    std::vector<Pre> expected;
    for (const algebra::Item& item : reference->items) {
      expected.push_back(item.stored_node().pre);
    }
    for (so::PlanMode mode : {so::PlanMode::kTopDown,
                              so::PlanMode::kBottomUpLast}) {
      xquery::Engine engine(&store);
      engine.mutable_options()->plan_mode = mode;
      auto result = engine.EvaluateChain(SceneSpeechWord(
          *doc, StandoffOp::kSelectNarrow, StandoffOp::kSelectNarrow));
      CHECK_OK(result);
      if (!result.ok()) continue;
      std::vector<Pre> got;
      for (const IterMatch& m : result->matches) got.push_back(m.pre);
      CHECK(got == expected);
    }
  }
}

static void TestAnyNameLayers() {
  // context_any (every annotated element as the context) and an
  // any-name step (the whole index as a layer, no post name-filter)
  // take their own branches in EvaluateChain/GetChainLayer.
  for (const std::string& xml : {NestedPlay(4), RandomSoup(11)}) {
    storage::DocumentStore store;
    auto doc = store.AddDocumentText("play.xml", xml);
    CHECK_OK(doc);
    const std::vector<OracleLayer> all_ctx{LayerByName(store, *doc, ""),
                                           LayerByName(store, *doc, ""),
                                           LayerByName(store, *doc, "word")};
    const std::pair<StandoffOp, StandoffOp> op_pairs[] = {
        {StandoffOp::kSelectWide, StandoffOp::kSelectNarrow},
        {StandoffOp::kSelectNarrow, StandoffOp::kRejectWide},
    };
    for (const auto& [op1, op2] : op_pairs) {
      const std::vector<IterMatch> oracle = OracleChain(all_ctx, {op1, op2});
      for (so::PlanMode mode :
           {so::PlanMode::kAuto, so::PlanMode::kTopDown}) {
        xquery::Engine engine(&store);
        engine.mutable_options()->plan_mode = mode;
        xquery::ChainQuery query = SceneSpeechWord(*doc, op1, op2);
        query.context_name.clear();
        query.context_any = true;
        query.steps[0].any_name = true;
        query.steps[0].name.clear();
        auto result = engine.EvaluateChain(query);
        CHECK_OK(result);
        if (result.ok()) {
          CHECK(result->context_ids == all_ctx[0].ids);
          CHECK(result->matches == oracle);
        }
      }
    }
  }
}

namespace {

/// An overlapping query mix over one document: repeated queries,
/// shared (ctx, first-step) prefixes with divergent tails, and a
/// different context that must NOT share anything with the rest.
std::vector<xquery::ChainQuery> OverlappingMix(storage::DocId doc) {
  const auto mk = [doc](const std::string& ctx,
                        std::vector<xquery::ChainStep> steps) {
    xquery::ChainQuery q;
    q.doc = doc;
    q.context_name = ctx;
    q.steps = std::move(steps);
    return q;
  };
  using A = xquery::Axis;
  std::vector<xquery::ChainQuery> queries;
  queries.push_back(mk("scene", {{A::kSelectNarrow, false, "speech"},
                                 {A::kSelectNarrow, false, "word"}}));
  queries.push_back(mk("scene", {{A::kSelectNarrow, false, "speech"},
                                 {A::kSelectWide, false, "word"}}));
  queries.push_back(mk("scene", {{A::kSelectNarrow, false, "speech"}}));
  queries.push_back(mk("scene", {{A::kSelectNarrow, false, "speech"},
                                 {A::kRejectNarrow, false, "word"}}));
  queries.push_back(queries[0]);  // exact repeat: full-chain memo hit
  queries.push_back(mk("scene", {{A::kSelectWide, false, "speech"},
                                 {A::kSelectNarrow, false, "word"}}));
  queries.push_back(mk("speech", {{A::kSelectNarrow, false, "word"}}));
  queries.push_back(queries[1]);  // another exact repeat
  return queries;
}

}  // namespace

static void TestSharedChainsIdenticalToUnshared() {
  // Engine-level CSE: a warm engine answering an overlapping mix with
  // sub-plan sharing ON must be byte-identical to a sharing-OFF engine,
  // for every plan mode — and the memo must actually be hit (this is a
  // differential test of the fast path, not of a disabled one).
  for (const std::string& xml :
       {NestedPlay(5), DuplicateSets(), RandomSoup(21), RandomSoup(22)}) {
    storage::DocumentStore store;
    auto doc = store.AddDocumentText("play.xml", xml);
    CHECK_OK(doc);
    const std::vector<xquery::ChainQuery> queries = OverlappingMix(*doc);
    for (so::PlanMode mode : {so::PlanMode::kAuto, so::PlanMode::kTopDown,
                              so::PlanMode::kBottomUpLast}) {
      xquery::Engine shared(&store);
      shared.mutable_options()->plan_mode = mode;
      shared.mutable_options()->share_subplans = true;
      size_t hits = 0;
      for (const xquery::ChainQuery& query : queries) {
        xquery::Engine unshared(&store);
        *unshared.mutable_options() = *shared.mutable_options();
        unshared.mutable_options()->share_subplans = false;
        auto got = shared.EvaluateChain(query);
        auto want = unshared.EvaluateChain(query);
        CHECK_OK(got);
        CHECK_OK(want);
        if (!got.ok() || !want.ok()) continue;
        CHECK(got->matches == want->matches);
        CHECK(got->context_ids == want->context_ids);
        hits += got->stats.memo_hits;
      }
      CHECK(hits > 0);
    }
  }
}

static void TestOverlappingBatchesSharedVsIndependent() {
  // The server's dispatch with sharing vs sequential independent
  // evaluation: the whole overlapping mix, in query order, on one
  // Engine over every shard's documents (sharing on, warm across two
  // consecutive rounds), must be byte-identical to per-query fresh
  // engines with sharing off, across plan modes and shard layouts.
  const std::string xmls[] = {NestedPlay(5), DuplicateSets(), RandomSoup(31),
                              ZeroOverlap(), RandomSoup(32), EmptyMiddle()};
  for (uint32_t store_shards : {1u, 3u}) {
    storage::ShardedStore store(store_shards);
    std::vector<storage::DocId> docs;
    for (const std::string& xml : xmls) {
      auto doc = store.AddDocumentText("d" + std::to_string(docs.size()), xml);
      CHECK_OK(doc);
      docs.push_back(*doc);
    }
    std::vector<xquery::ChainQuery> queries;
    for (storage::DocId doc : docs) {
      for (const xquery::ChainQuery& q : OverlappingMix(doc)) {
        queries.push_back(q);
      }
    }
    for (so::PlanMode mode : {so::PlanMode::kAuto, so::PlanMode::kTopDown,
                              so::PlanMode::kBottomUpLast}) {
      xquery::EngineOptions options;
      options.plan_mode = mode;
      options.share_subplans = true;
      xquery::Engine shared(&store);
      *shared.mutable_options() = options;
      for (int round = 0; round < 2; ++round) {  // round 2 is memo-warm
        for (const xquery::ChainQuery& query : queries) {
          auto got = shared.EvaluateChain(query);
          xquery::Engine single(&store.store());
          *single.mutable_options() = options;
          single.mutable_options()->share_subplans = false;
          auto expected = single.EvaluateChain(query);
          CHECK_OK(expected);
          CHECK_OK(got);
          if (expected.ok() && got.ok()) {
            CHECK(got->matches == expected->matches);
            CHECK(got->context_ids == expected->context_ids);
          }
        }
      }
      // The mix's overlap actually shared work.
      CHECK(shared.subplan_memo()->hits() > 0);
    }
  }
}

static void TestMemoPoisoningRegression() {
  // Prefixes of one chain family differ only in their tails: each must
  // get its own memo entry (the memo is keyed by the full key), so
  // answers stay byte-identical to sharing-off evaluation. A memo that
  // trusted a key's hash alone aliased different sub-plans and
  // returned wrong rows.
  storage::DocumentStore store;
  auto doc = store.AddDocumentText("play.xml", NestedPlay(5));
  CHECK_OK(doc);
  xquery::Engine shared(&store);
  shared.mutable_options()->share_subplans = true;
  // The memo is created on the first shared chain; start the mix from
  // an empty one.
  CHECK_OK(shared.EvaluateChain(OverlappingMix(*doc)[0]));
  CHECK(shared.subplan_memo() != nullptr);
  shared.subplan_memo()->Clear();
  size_t hits = 0;
  for (int round = 0; round < 2; ++round) {
    for (const xquery::ChainQuery& query : OverlappingMix(*doc)) {
      xquery::Engine unshared(&store);
      unshared.mutable_options()->share_subplans = false;
      auto got = shared.EvaluateChain(query);
      auto want = unshared.EvaluateChain(query);
      CHECK_OK(got);
      CHECK_OK(want);
      if (got.ok() && want.ok()) {
        CHECK(got->matches == want->matches);
        CHECK(got->context_ids == want->context_ids);
      }
      if (got.ok()) hits += got->stats.memo_hits;
    }
  }
  CHECK(hits > 0);  // sharing stayed on
}

int main() {
  RUN_TEST(TestChainShapesAgainstOracle);
  RUN_TEST(TestXmarkDerivedChain);
  RUN_TEST(TestChainMatchesFlworPath);
  RUN_TEST(TestAnyNameLayers);
  RUN_TEST(TestSharedChainsIdenticalToUnshared);
  RUN_TEST(TestOverlappingBatchesSharedVsIndependent);
  RUN_TEST(TestMemoPoisoningRegression);
  TEST_MAIN();
}
