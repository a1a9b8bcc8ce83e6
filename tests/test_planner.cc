// The chain planner: RegionStats gathering, the selectivity/cost
// estimates behind join-order and gallop selection, and ExecuteChain's
// two orders on handcrafted chains — including the degenerate shapes
// (empty middle layer, single-edge chain, duplicate region sets).
#include <cmath>
#include <string>

#include "common/rng.h"
#include "standoff/plan.h"
#include "storage/column_stats.h"
#include "storage/document_store.h"
#include "tests/harness.h"
#include "xquery/engine.h"

using namespace standoff;
using so::ChainEdge;
using so::ChainLayer;
using so::ChainOrder;
using so::ChainPlan;
using so::ChainSpec;
using so::IterMatch;
using so::IterRegion;
using so::PlanMode;
using so::RegionEntry;
using so::StandoffOp;
using storage::Pre;
using storage::RegionStats;

namespace {

ChainLayer LayerOf(const so::RegionIndex& index) {
  ChainLayer layer;
  layer.columns = index.columns();
  layer.ids = index.annotated_ids();
  layer.ids_set = true;
  layer.index = &index;
  layer.stats =
      RegionStats::Compute(layer.columns.start, layer.columns.end,
                           layer.columns.size);
  return layer;
}

/// Context rows from an index: one loop iteration per annotated id in
/// id (document) order, carrying every region of that id.
void ContextOf(const so::RegionIndex& index, ChainSpec* spec) {
  const storage::Span<Pre> ids = index.annotated_ids();
  spec->iter_count = static_cast<uint32_t>(ids.size());
  for (uint32_t i = 0; i < spec->iter_count; ++i) {
    index.ForEachRegionOf(ids[i], [&](int64_t start, int64_t end) {
      spec->context.push_back(IterRegion{i, start, end});
    });
  }
  std::vector<int64_t> starts, ends;
  for (const IterRegion& c : spec->context) {
    starts.push_back(c.start);
    ends.push_back(c.end);
  }
  spec->context_stats =
      RegionStats::Compute(starts.data(), ends.data(), starts.size());
}

ChainSpec MakeSpec(const so::RegionIndex& top,
                   const std::vector<const so::RegionIndex*>& layers,
                   const std::vector<StandoffOp>& ops) {
  ChainSpec spec;
  ContextOf(top, &spec);
  for (size_t e = 0; e < layers.size(); ++e) {
    ChainEdge edge;
    edge.op = ops[e];
    edge.layer = LayerOf(*layers[e]);
    spec.edges.push_back(std::move(edge));
  }
  return spec;
}

std::vector<IterMatch> MustExecute(const ChainSpec& spec,
                                   const ChainPlan& plan,
                                   so::ChainStats* stats = nullptr) {
  std::vector<IterMatch> out;
  so::ChainExecOptions options;
  CHECK_OK(so::ExecuteChain(spec, plan, options, &out, stats));
  return out;
}

/// Brute-force chain evaluation mirroring the executor's semantics:
/// per iteration, an id of the next layer matches when ANY of its
/// regions matches ANY current region; reject complements the layer's
/// universe per live iteration; matched ids' full region sets become
/// the next current regions.
std::vector<IterMatch> ChainOracle(
    const ChainSpec& spec, const std::vector<const so::RegionIndex*>& layers,
    const std::vector<StandoffOp>& ops) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> cur(spec.iter_count);
  for (const IterRegion& c : spec.context) {
    cur[c.iter].emplace_back(c.start, c.end);
  }
  std::vector<std::vector<Pre>> ids(spec.iter_count);
  for (size_t e = 0; e < layers.size(); ++e) {
    const StandoffOp op = ops[e];
    const bool narrow = op == StandoffOp::kSelectNarrow ||
                        op == StandoffOp::kRejectNarrow;
    const bool reject = op == StandoffOp::kRejectNarrow ||
                        op == StandoffOp::kRejectWide;
    for (uint32_t iter = 0; iter < spec.iter_count; ++iter) {
      std::vector<Pre> matched;
      if (!cur[iter].empty()) {
        for (Pre id : layers[e]->annotated_ids()) {
          bool hit = false;
          layers[e]->ForEachRegionOf(id, [&](int64_t s, int64_t en) {
            for (const auto& [cs, ce] : cur[iter]) {
              if (narrow ? (cs <= s && en <= ce) : (cs <= en && s <= ce)) {
                hit = true;
              }
            }
          });
          if (hit != reject) matched.push_back(id);
        }
      }
      ids[iter] = std::move(matched);
      cur[iter].clear();
      for (Pre id : ids[iter]) {
        layers[e]->ForEachRegionOf(id, [&](int64_t s, int64_t en) {
          cur[iter].emplace_back(s, en);
        });
      }
    }
  }
  std::vector<IterMatch> out;
  for (uint32_t iter = 0; iter < spec.iter_count; ++iter) {
    for (Pre id : ids[iter]) out.push_back(IterMatch{iter, id});
  }
  return out;
}

}  // namespace

static void TestRegionStats() {
  const int64_t start[] = {0, 10, 20, 100};
  const int64_t end[] = {0, 19, 51, 101};  // widths 1, 10, 32, 2
  const RegionStats stats = RegionStats::Compute(start, end, 4);
  CHECK_EQ(stats.count, size_t{4});
  CHECK_EQ(stats.min_start, int64_t{0});
  CHECK_EQ(stats.max_end, int64_t{101});
  CHECK_EQ(stats.Span(), 102.0);
  CHECK_EQ(stats.total_width, 45.0);
  CHECK_EQ(stats.width_hist[0], uint64_t{1});  // width 1
  CHECK_EQ(stats.width_hist[1], uint64_t{1});  // width 2
  CHECK_EQ(stats.width_hist[3], uint64_t{1});  // width 10
  CHECK_EQ(stats.width_hist[5], uint64_t{1});  // width 32
  // FractionWidthAtMost is monotone and hits the extremes.
  CHECK_EQ(stats.FractionWidthAtMost(0.5), 0.0);
  CHECK(stats.FractionWidthAtMost(2) >= 0.25);
  CHECK(stats.FractionWidthAtMost(2) <=
        stats.FractionWidthAtMost(16));
  CHECK_EQ(stats.FractionWidthAtMost(64), 1.0);
  const RegionStats empty = RegionStats::Compute(nullptr, nullptr, 0);
  CHECK_EQ(empty.Span(), 0.0);
  CHECK_EQ(empty.Coverage(), 0.0);
}

static void TestGallopChoice() {
  // Sparse: 3 narrow contexts over a wide universe of small candidates
  // -> the merge is output-bounded, gallop on.
  Rng rng(7);
  std::vector<RegionEntry> wide_set;
  for (Pre i = 0; i < 20000; ++i) {
    const int64_t s = rng.UniformRange(0, 10000000);
    wide_set.push_back(RegionEntry{s, s + 5, i + 1});
  }
  const so::RegionIndex big = so::RegionIndex::FromEntries(wide_set);
  std::vector<RegionEntry> tiny{{100, 200, 1}, {5000, 5100, 2},
                                {90000, 90100, 3}};
  const so::RegionIndex top = so::RegionIndex::FromEntries(tiny);
  ChainSpec sparse = MakeSpec(top, {&big}, {StandoffOp::kSelectNarrow});
  const ChainPlan sparse_plan = so::PlanChain(sparse);
  CHECK(sparse_plan.edges[0].gallop);

  // Dense: contexts covering the whole span -> every candidate
  // matches, gallop buys nothing.
  std::vector<RegionEntry> cover{{0, 10000010, 1}, {0, 10000010, 2}};
  const so::RegionIndex covering = so::RegionIndex::FromEntries(cover);
  ChainSpec dense = MakeSpec(covering, {&big}, {StandoffOp::kSelectNarrow});
  const ChainPlan dense_plan = so::PlanChain(dense);
  CHECK(dense_plan.edges[0].est_match_fraction > 0.9);
  CHECK(!dense_plan.edges[0].gallop);
}

static void TestCallerGallopOffReachesEveryJoin() {
  // A sparse chain the planner gallops on: three narrow contexts over
  // ~5,000 small candidates spread across a wide span. The planner may
  // decline galloping but never overrule a caller's gallop = false —
  // on EvaluateChain and on the equivalent FLWOR step alike.
  Rng rng(11);
  std::string xml = "<r>";
  for (int64_t s : {100, 500000, 9000000}) {
    xml += "<ctx start=\"" + std::to_string(s) + "\" end=\"" +
           std::to_string(s + 100) + "\"/>";
    xml += "<w start=\"" + std::to_string(s + 10) + "\" end=\"" +
           std::to_string(s + 15) + "\"/>";  // one sure match each
  }
  for (int i = 0; i < 5000; ++i) {
    const int64_t s = rng.UniformRange(0, 10000000);
    xml += "<w start=\"" + std::to_string(s) + "\" end=\"" +
           std::to_string(s + 5) + "\"/>";
  }
  xml += "</r>";
  storage::DocumentStore store;
  auto doc = store.AddDocumentText("sparse.xml", xml);
  CHECK_OK(doc);
  xquery::ChainQuery query;
  query.doc = *doc;
  query.context_name = "ctx";
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "w"});

  std::vector<IterMatch> reference;
  for (bool gallop : {true, false}) {
    xquery::Engine chain_engine(&store);
    so::JoinStats chain_stats;
    chain_engine.mutable_options()->join.gallop = gallop;
    chain_engine.mutable_options()->join.stats = &chain_stats;
    auto chain = chain_engine.EvaluateChain(query);
    CHECK_OK(chain);
    if (!chain.ok()) continue;
    CHECK(chain->plan.edges[0].gallop);  // the planner's choice
    if (gallop) {
      reference = chain->matches;
      CHECK(chain_stats.candidates_skipped > 0);
    } else {
      CHECK(chain->matches == reference);
      CHECK_EQ(chain_stats.candidates_skipped, size_t{0});
    }

    xquery::Engine flwor_engine(&store);
    so::JoinStats flwor_stats;
    flwor_engine.mutable_options()->join.gallop = gallop;
    flwor_engine.mutable_options()->join.stats = &flwor_stats;
    auto flwor =
        flwor_engine.Evaluate("for $c in //ctx return $c/select-narrow::w");
    CHECK_OK(flwor);
    if (!flwor.ok()) continue;
    CHECK_EQ(flwor->items.size(), chain->matches.size());
    if (gallop) {
      CHECK(flwor_stats.candidates_skipped > 0);
    } else {
      CHECK_EQ(flwor_stats.candidates_skipped, size_t{0});
    }
  }
  CHECK(!reference.empty());
}

static void TestOrderSelection() {
  // Bottom-up territory: a large top context with high fanout into a
  // big middle layer, but a nearly-empty final layer — evaluating the
  // last edge first collapses the middle layer to a handful of rows.
  Rng rng(11);
  std::vector<RegionEntry> tops, mids, lows;
  for (Pre i = 0; i < 500; ++i) {
    // Overlapping context windows: each middle region lands in ~10 of
    // them, so the top-down intermediate balloons past the middle
    // layer itself — the fanout bottom-up exists to avoid.
    const int64_t s = static_cast<int64_t>(i) * 500;
    tops.push_back(RegionEntry{s, s + 4999, i + 1});
  }
  for (Pre i = 0; i < 50000; ++i) {
    const int64_t s = rng.UniformRange(0, 999900);
    mids.push_back(RegionEntry{s, s + rng.UniformRange(1, 50), i + 1});
  }
  for (Pre i = 0; i < 10; ++i) {
    const int64_t s = rng.UniformRange(0, 999990);
    lows.push_back(RegionEntry{s, s + 1, i + 1});
  }
  const so::RegionIndex top = so::RegionIndex::FromEntries(tops);
  const so::RegionIndex mid = so::RegionIndex::FromEntries(mids);
  const so::RegionIndex low = so::RegionIndex::FromEntries(lows);
  ChainSpec spec = MakeSpec(
      top, {&mid, &low},
      {StandoffOp::kSelectNarrow, StandoffOp::kSelectNarrow});
  const ChainPlan plan = so::PlanChain(spec);
  CHECK(plan.est_cost_bottom_up < plan.est_cost_top_down);
  CHECK(plan.order == ChainOrder::kBottomUpLast);
  CHECK(!plan.Describe().empty());

  // Both orders must agree with each other and the oracle.
  so::ChainStats bu_stats;
  const std::vector<IterMatch> bottom_up = MustExecute(spec, plan, &bu_stats);
  const std::vector<IterMatch> top_down =
      MustExecute(spec, so::PlanChain(spec, PlanMode::kTopDown));
  CHECK(bottom_up == top_down);
  CHECK(bottom_up ==
        ChainOracle(spec, {&mid, &low},
                    {StandoffOp::kSelectNarrow, StandoffOp::kSelectNarrow}));
  // The bottom-up path really filtered: almost all middle rows dropped.
  CHECK(bu_stats.bottom_up_dropped_rows > 49000);

  // Top-down territory: a tiny top context makes the first edge nearly
  // free, so running the last edge over the full middle layer loses.
  std::vector<RegionEntry> one_top{{0, 500, 1}};
  const so::RegionIndex small_top = so::RegionIndex::FromEntries(one_top);
  ChainSpec small = MakeSpec(
      small_top, {&mid, &low},
      {StandoffOp::kSelectNarrow, StandoffOp::kSelectNarrow});
  const ChainPlan small_plan = so::PlanChain(small);
  CHECK(small_plan.order == ChainOrder::kTopDown);

  // Reject edges outlaw bottom-up; a forced request degrades.
  ChainSpec rejecting = MakeSpec(
      top, {&mid, &low},
      {StandoffOp::kSelectNarrow, StandoffOp::kRejectNarrow});
  const ChainPlan forced =
      so::PlanChain(rejecting, PlanMode::kBottomUpLast);
  CHECK(forced.order == ChainOrder::kTopDown);
}

static void TestTinyChainBothOrders() {
  // scene [0,100] and [200,300]; speeches inside scene 0 and scene 1;
  // words inside the first speech only.
  const so::RegionIndex scenes = so::RegionIndex::FromEntries(
      {{0, 100, 1}, {200, 300, 2}});
  const so::RegionIndex speeches = so::RegionIndex::FromEntries(
      {{10, 50, 3}, {60, 90, 4}, {210, 290, 5}});
  const so::RegionIndex words = so::RegionIndex::FromEntries(
      {{12, 14, 6}, {20, 22, 7}, {70, 72, 8}, {400, 402, 9}});
  const std::vector<StandoffOp> ops{StandoffOp::kSelectNarrow,
                                    StandoffOp::kSelectNarrow};
  ChainSpec spec = MakeSpec(scenes, {&speeches, &words}, ops);
  const std::vector<IterMatch> expected{{0, 6}, {0, 7}, {0, 8}};
  for (PlanMode mode : {PlanMode::kTopDown, PlanMode::kBottomUpLast,
                        PlanMode::kAuto}) {
    const std::vector<IterMatch> got =
        MustExecute(spec, so::PlanChain(spec, mode));
    CHECK(got == expected);
  }
  CHECK(expected == ChainOracle(spec, {&speeches, &words}, ops));
}

static void TestEmptyMiddleLayer() {
  const so::RegionIndex scenes = so::RegionIndex::FromEntries(
      {{0, 100, 1}, {200, 300, 2}});
  const so::RegionIndex empty = so::RegionIndex::FromEntries({});
  const so::RegionIndex words = so::RegionIndex::FromEntries(
      {{12, 14, 6}, {20, 22, 7}});
  for (StandoffOp last :
       {StandoffOp::kSelectNarrow, StandoffOp::kRejectWide}) {
    const std::vector<StandoffOp> ops{StandoffOp::kSelectNarrow, last};
    ChainSpec spec = MakeSpec(scenes, {&empty, &words}, ops);
    for (PlanMode mode : {PlanMode::kTopDown, PlanMode::kBottomUpLast}) {
      const std::vector<IterMatch> got =
          MustExecute(spec, so::PlanChain(spec, mode));
      CHECK(got == ChainOracle(spec, {&empty, &words}, ops));
      CHECK(got.empty());  // no middle layer, no live iterations below
    }
  }
}

static void TestDuplicateRegionSets() {
  // The same set on both sides of an edge: every region contains
  // itself (boundaries are inclusive), so narrow over a duplicate set
  // is reflexive plus any true nesting.
  const so::RegionIndex set = so::RegionIndex::FromEntries(
      {{0, 100, 1}, {10, 20, 2}, {200, 250, 3}});
  const std::vector<StandoffOp> ops{StandoffOp::kSelectNarrow,
                                    StandoffOp::kSelectNarrow};
  ChainSpec spec = MakeSpec(set, {&set, &set}, ops);
  const std::vector<IterMatch> oracle = ChainOracle(spec, {&set, &set}, ops);
  CHECK(!oracle.empty());
  for (PlanMode mode : {PlanMode::kTopDown, PlanMode::kBottomUpLast}) {
    CHECK(MustExecute(spec, so::PlanChain(spec, mode)) == oracle);
  }
}

static void TestMultiRegionMiddleLayer() {
  // A middle-layer id with TWO regions, only one of which contains a
  // final-layer match and only the OTHER of which the context
  // contains: id-level semantics say the id matches (via its second
  // region) and then contributes all its regions, so the word in the
  // first region is a result. Bottom-up must filter by id, not by row,
  // to agree with top-down here.
  const so::RegionIndex top = so::RegionIndex::FromEntries({{100, 200, 1}});
  const so::RegionIndex mid = so::RegionIndex::FromEntries(
      {{0, 10, 7}, {150, 160, 7}});
  const so::RegionIndex low = so::RegionIndex::FromEntries({{5, 6, 9}});
  const std::vector<StandoffOp> ops{StandoffOp::kSelectNarrow,
                                    StandoffOp::kSelectNarrow};
  ChainSpec spec = MakeSpec(top, {&mid, &low}, ops);
  const std::vector<IterMatch> expected{{0, 9}};
  CHECK(ChainOracle(spec, {&mid, &low}, ops) == expected);
  for (PlanMode mode : {PlanMode::kTopDown, PlanMode::kBottomUpLast}) {
    const std::vector<IterMatch> got =
        MustExecute(spec, so::PlanChain(spec, mode));
    CHECK(got == expected);
  }
}

static void TestSingleEdgeChain() {
  const so::RegionIndex top = so::RegionIndex::FromEntries({{0, 50, 1}});
  const so::RegionIndex layer = so::RegionIndex::FromEntries(
      {{5, 10, 2}, {60, 70, 3}});
  ChainSpec spec = MakeSpec(top, {&layer}, {StandoffOp::kSelectNarrow});
  // Bottom-up needs two edges; forcing it must degrade, not break.
  const ChainPlan plan = so::PlanChain(spec, PlanMode::kBottomUpLast);
  CHECK(plan.order == ChainOrder::kTopDown);
  const std::vector<IterMatch> got = MustExecute(spec, plan);
  CHECK(got == (std::vector<IterMatch>{{0, 2}}));
}

static void TestRandomChainsBothOrders() {
  Rng rng(99);
  for (int round = 0; round < 8; ++round) {
    const int64_t universe = 2000;
    auto make = [&](size_t n, int64_t max_width) {
      std::vector<RegionEntry> entries;
      for (size_t i = 0; i < n; ++i) {
        const int64_t s = rng.UniformRange(0, universe);
        // Ids drawn with collisions: some annotations carry several
        // regions, the shape that separates id-level from row-level
        // matching in the bottom-up order.
        entries.push_back(RegionEntry{
            s, s + rng.UniformRange(0, max_width),
            static_cast<Pre>(rng.UniformRange(1, static_cast<int64_t>(n)))});
      }
      return so::RegionIndex::FromEntries(std::move(entries));
    };
    const so::RegionIndex top = make(6, 400);
    const so::RegionIndex mid = make(40, 120);
    const so::RegionIndex low = make(60, 30);
    const StandoffOp op_pool[] = {
        StandoffOp::kSelectNarrow, StandoffOp::kSelectWide,
        StandoffOp::kRejectNarrow, StandoffOp::kRejectWide};
    const std::vector<StandoffOp> ops{
        op_pool[rng.UniformRange(0, 3)], op_pool[rng.UniformRange(0, 3)]};
    ChainSpec spec = MakeSpec(top, {&mid, &low}, ops);
    const std::vector<IterMatch> oracle =
        ChainOracle(spec, {&mid, &low}, ops);
    for (PlanMode mode : {PlanMode::kAuto, PlanMode::kTopDown,
                          PlanMode::kBottomUpLast}) {
      const std::vector<IterMatch> got =
          MustExecute(spec, so::PlanChain(spec, mode));
      if (!(got == oracle)) {
        std::fprintf(stderr,
                     "  round %d mode %d ops {%s,%s}: %zu vs oracle %zu\n",
                     round, static_cast<int>(mode), StandoffOpName(ops[0]),
                     StandoffOpName(ops[1]), got.size(), oracle.size());
        CHECK(false);
      }
    }
  }
}

static void TestSubPlanMemoLruAndCounters() {
  so::SubPlanMemo memo(2);
  CHECK_EQ(memo.capacity(), 2u);
  CHECK(memo.Lookup("a") == nullptr);
  CHECK_EQ(memo.misses(), 1u);
  const auto entry = [](Pre id) {
    auto e = std::make_shared<so::SubPlanMemo::Entry>();
    e->matches.push_back(IterMatch{0, id});
    return e;
  };
  memo.Insert("a", entry(1));
  memo.Insert("b", entry(2));
  CHECK_EQ(memo.size(), 2u);
  CHECK(memo.Lookup("a") != nullptr);  // refresh: "a" becomes MRU
  CHECK_EQ(memo.hits(), 1u);
  memo.Insert("c", entry(3));  // evicts "b", the LRU entry
  CHECK_EQ(memo.evictions(), 1u);
  CHECK(memo.Lookup("b") == nullptr);
  CHECK(memo.Lookup("a") != nullptr);
  CHECK(memo.Lookup("c") != nullptr);
  // Refcounting: a held entry survives its eviction.
  const auto held = memo.Lookup("a");
  memo.Insert("d", entry(4));
  memo.Insert("e", entry(5));
  CHECK(memo.Lookup("a") == nullptr);
  CHECK_EQ(held->matches.size(), 1u);
  CHECK_EQ(held->matches[0].pre, static_cast<Pre>(1));
  // Replacing a key updates in place, no growth and no eviction.
  const size_t evictions = memo.evictions();
  memo.Insert("e", entry(6));
  CHECK_EQ(memo.size(), 2u);
  CHECK_EQ(memo.evictions(), evictions);
  CHECK_EQ(memo.Lookup("e")->matches[0].pre, static_cast<Pre>(6));
  memo.Clear();
  CHECK_EQ(memo.size(), 0u);
  CHECK(memo.Lookup("e") == nullptr);
}

static void TestSubPlanMemoCollisions() {
  // Distinct keys that differ only in their tails, as the prefixes of
  // one chain do, must resolve to their own entries: a hit is an equal
  // key, never merely an equal hash.
  so::SubPlanMemo memo(8);
  for (Pre id = 1; id <= 5; ++id) {
    auto e = std::make_shared<so::SubPlanMemo::Entry>();
    e->matches.push_back(IterMatch{0, id});
    memo.Insert("key-" + std::to_string(id), std::move(e));
  }
  for (Pre id = 1; id <= 5; ++id) {
    const auto hit = memo.Lookup("key-" + std::to_string(id));
    CHECK(hit != nullptr);
    if (hit) CHECK_EQ(hit->matches[0].pre, id);
  }
  CHECK(memo.Lookup("key-9") == nullptr);
  // Eviction keeps the remaining entries reachable.
  so::SubPlanMemo tiny(2);
  for (Pre id = 1; id <= 4; ++id) {
    auto e = std::make_shared<so::SubPlanMemo::Entry>();
    e->matches.push_back(IterMatch{0, id});
    tiny.Insert("k" + std::to_string(id), std::move(e));
  }
  CHECK_EQ(tiny.size(), 2u);
  CHECK_EQ(tiny.evictions(), 2u);
  CHECK(tiny.Lookup("k1") == nullptr);
  CHECK(tiny.Lookup("k4") != nullptr);
}

int main() {
  RUN_TEST(TestRegionStats);
  RUN_TEST(TestGallopChoice);
  RUN_TEST(TestCallerGallopOffReachesEveryJoin);
  RUN_TEST(TestOrderSelection);
  RUN_TEST(TestTinyChainBothOrders);
  RUN_TEST(TestEmptyMiddleLayer);
  RUN_TEST(TestDuplicateRegionSets);
  RUN_TEST(TestMultiRegionMiddleLayer);
  RUN_TEST(TestSingleEdgeChain);
  RUN_TEST(TestRandomChainsBothOrders);
  RUN_TEST(TestSubPlanMemoLruAndCounters);
  RUN_TEST(TestSubPlanMemoCollisions);
  TEST_MAIN();
}
