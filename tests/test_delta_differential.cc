// Differential pinning of the mutable-store delta layer (DESIGN.md
// §15): a base store plus any sequence of InsertRegion / DeleteRegions
// writes must be BYTE-IDENTICAL — in region-index columns and in every
// query result — to a store rebuilt from scratch over the final state.
//
//   * Index level: MergeBaseDelta(base, run) vs RegionIndex rebuilt
//     from the model entry set — columns, annotated_ids and the id
//     index ForEachRegionOf reads — over randomized op sequences on
//     bases of up to a few thousand rows, including multi-region ids,
//     inserts equal to base rows, delete-then-reinsert, tombstones of
//     ids with no base rows, and insert-only / tombstone-only runs; and
//     the same id index after a compaction round trip through a
//     snapshot.
//   * Engine level: EvaluateChain over the MutableStore's frozen
//     DeltaStoreView vs an oracle store whose XML carries the final
//     region state, across kernels (scalar / auto SIMD) × plan modes ×
//     {1,3}-shard stores. The corpus keeps one region per element so
//     the oracle XML has identical pre ids.
//   * FLWOR vs chain: a FLWOR StandOff step (loop-lifted and basic
//     modes) and the equivalent one-edge EvaluateChain over a delta
//     view, with second-region inserts on annotated ids.
//   * Compaction: writes issued between the compaction freeze and
//     AdoptCompacted (= mid-compaction writes) must survive the
//     rebase; ops at or below the frozen sequence must fold into the
//     new base exactly once.
//   * Rebase: one Engine carried across every view of a seeded write
//     stream over two documents on two shards (Rebase) answers chains
//     and Figure 6 FLWORs exactly as a fresh engine over the same view
//     does.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "standoff/region_index.h"
#include "storage/delta.h"
#include "storage/sharded_store.h"
#include "storage/snapshot.h"
#include "tests/harness.h"
#include "tests/oracle.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xmark/standoff_transform.h"
#include "xquery/engine.h"

using namespace standoff;
using so::IterMatch;
using storage::Pre;

namespace {

std::string TempPath(const char* name) {
  return std::string("/tmp/standoff_test_") + name + "_" +
         std::to_string(::getpid()) + ".sosnap";
}

std::string DefaultFingerprint() {
  return so::ConfigFingerprint(so::StandoffConfig{});
}

// ---------------------------------------------------------------------------
// Index-level oracle: a model entry multiset updated in lockstep with a
// DeltaRun built through MutableStore-identical op semantics.
// ---------------------------------------------------------------------------

struct Model {
  std::vector<so::RegionEntry> base;     // immutable
  std::vector<so::RegionEntry> pending;  // live delta inserts
  std::map<Pre, bool> tombstoned;

  void Insert(int64_t start, int64_t end, Pre id) {
    pending.push_back({start, end, id});
  }
  void Delete(Pre id) {
    std::vector<so::RegionEntry> kept;
    for (const auto& e : pending) {
      if (e.id != id) kept.push_back(e);
    }
    pending = std::move(kept);
    tombstoned[id] = true;
  }
  std::vector<so::RegionEntry> Final() const {
    std::vector<so::RegionEntry> out;
    for (const auto& e : base) {
      auto it = tombstoned.find(e.id);
      if (it == tombstoned.end() || !it->second) out.push_back(e);
    }
    for (const auto& e : pending) out.push_back(e);
    return out;
  }
};

/// Applies an op to a DeltaRun with MutableStore's exact semantics.
void RunInsert(storage::DeltaRun* run, int64_t start, int64_t end, Pre id,
               uint64_t seq) {
  const storage::DeltaInsert insert{start, end, id, seq};
  auto it = std::upper_bound(
      run->inserts.begin(), run->inserts.end(), insert,
      [](const storage::DeltaInsert& a, const storage::DeltaInsert& b) {
        if (a.start != b.start) return a.start < b.start;
        if (a.end != b.end) return a.end < b.end;
        return a.id < b.id;
      });
  run->inserts.insert(it, insert);
  run->seq = seq;
}

void RunDelete(storage::DeltaRun* run, Pre id, uint64_t seq) {
  run->inserts.erase(
      std::remove_if(run->inserts.begin(), run->inserts.end(),
                     [id](const storage::DeltaInsert& i) { return i.id == id; }),
      run->inserts.end());
  auto it = std::lower_bound(
      run->tombstones.begin(), run->tombstones.end(), id,
      [](const storage::DeltaTombstone& t, Pre value) { return t.id < value; });
  if (it != run->tombstones.end() && it->id == id) {
    it->seq = seq;
  } else {
    run->tombstones.insert(it, storage::DeltaTombstone{id, seq});
  }
  run->seq = seq;
}

bool ColumnsEqual(const so::RegionIndex& a, const so::RegionIndex& b) {
  const so::RegionColumns va = a.columns();
  const so::RegionColumns vb = b.columns();
  if (va.size != vb.size) return false;
  for (size_t i = 0; i < va.size; ++i) {
    if (va.start[i] != vb.start[i] || va.end[i] != vb.end[i] ||
        va.id[i] != vb.id[i]) {
      return false;
    }
  }
  const auto ia = a.annotated_ids();
  const auto ib = b.annotated_ids();
  if (ia.size() != ib.size()) return false;
  for (size_t i = 0; i < ia.size(); ++i) {
    if (ia[i] != ib[i]) return false;
  }
  // The id index (rows_by_id) behind ForEachRegionOf: every id up to
  // one past the largest must list the same regions in the same order.
  const Pre max_id = ia.empty() ? 0 : ia[ia.size() - 1];
  std::vector<std::pair<int64_t, int64_t>> ra, rb;
  for (Pre id = 0; id <= max_id + 1; ++id) {
    ra.clear();
    rb.clear();
    a.ForEachRegionOf(id,
                      [&ra](int64_t s, int64_t e) { ra.emplace_back(s, e); });
    b.ForEachRegionOf(id,
                      [&rb](int64_t s, int64_t e) { rb.emplace_back(s, e); });
    if (ra != rb) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Engine-level corpus: scene/speech/word with one region per element.
// Each element's pre id is stable across the base and oracle stores
// because only ATTRIBUTES differ, never the element structure.
// ---------------------------------------------------------------------------

/// One element slot: name plus its region in the base and in the final
/// (post-delta) state. has_* false = no region attributes.
struct Slot {
  std::string name;
  bool has_base = false;
  int64_t base_start = 0, base_end = 0;
  bool has_final = false;
  int64_t final_start = 0, final_end = 0;
};

std::string CorpusXml(const std::vector<Slot>& slots, bool final_state) {
  std::string xml = "<play>";
  for (const Slot& slot : slots) {
    const bool has = final_state ? slot.has_final : slot.has_base;
    const int64_t s = final_state ? slot.final_start : slot.base_start;
    const int64_t e = final_state ? slot.final_end : slot.base_end;
    if (has) {
      xml += "<" + slot.name + " start=\"" + std::to_string(s) + "\" end=\"" +
             std::to_string(e) + "\"/>";
    } else {
      xml += "<" + slot.name + "/>";
    }
  }
  xml += "</play>";
  return xml;
}

/// The corpus: base regions plus a delta script exercising insert on a
/// bare element, delete of a base region, and delete-then-reinsert
/// with moved coordinates.
std::vector<Slot> MakeSlots() {
  std::vector<Slot> slots;
  const auto add = [&](const std::string& name, bool has_base, int64_t bs,
                       int64_t be, bool has_final, int64_t fs, int64_t fe) {
    slots.push_back(Slot{name, has_base, bs, be, has_final, fs, fe});
  };
  for (int scene = 0; scene < 3; ++scene) {
    const int64_t base = scene * 1000;
    add("scene", true, base, base + 999, true, base, base + 999);
    for (int sp = 0; sp < 2; ++sp) {
      const int64_t s = base + sp * 400 + 10;
      add("speech", true, s, s + 350, true, s, s + 350);
      for (int w = 0; w < 3; ++w) {
        const int64_t ws = s + 5 + w * 100;
        add("word", true, ws, ws + 20, true, ws, ws + 20);
      }
      // One bare word per speech — a delta insert target.
      add("word", false, 0, 0, false, 0, 0);
    }
  }
  return slots;
}

/// Elements are laid out root, then one node per slot in order; the
/// slot's pre id is its position + 2 (pre 0 is the document node,
/// pre 1 is <play>). Attributes are not separate nodes.
Pre SlotPre(size_t slot_index) { return static_cast<Pre>(slot_index + 2); }

struct DeltaOp {
  enum Kind { kInsert, kDelete } kind = kInsert;
  size_t slot = 0;
  int64_t start = 0, end = 0;
};

/// The scripted delta: applied to MutableStore AND reflected into the
/// slots' final state. Returns the ops.
std::vector<DeltaOp> ScriptDeltas(std::vector<Slot>* slots) {
  std::vector<DeltaOp> ops;
  std::vector<size_t> bare, words;
  for (size_t i = 0; i < slots->size(); ++i) {
    if ((*slots)[i].name != "word") continue;
    ((*slots)[i].has_base ? words : bare).push_back(i);
  }
  // Insert regions for half the bare words.
  for (size_t k = 0; k < bare.size(); k += 2) {
    Slot& slot = (*slots)[bare[k]];
    const int64_t start = 40 + static_cast<int64_t>(k) * 500;
    slot.has_final = true;
    slot.final_start = start;
    slot.final_end = start + 25;
    ops.push_back({DeltaOp::kInsert, bare[k], start, start + 25});
  }
  // Delete every third annotated word.
  for (size_t k = 0; k < words.size(); k += 3) {
    Slot& slot = (*slots)[words[k]];
    slot.has_final = false;
    ops.push_back({DeltaOp::kDelete, words[k], 0, 0});
  }
  // Delete-then-reinsert: the second annotated word moves.
  if (words.size() > 1) {
    Slot& slot = (*slots)[words[1]];
    ops.push_back({DeltaOp::kDelete, words[1], 0, 0});
    slot.has_final = true;
    slot.final_start = slot.base_start + 7;
    slot.final_end = slot.base_end + 7;
    ops.push_back(
        {DeltaOp::kInsert, words[1], slot.final_start, slot.final_end});
  }
  return ops;
}

void ApplyOps(storage::MutableStore* store, const std::vector<DeltaOp>& ops,
              storage::DocId doc) {
  for (const DeltaOp& op : ops) {
    if (op.kind == DeltaOp::kInsert) {
      CHECK_OK(store->InsertRegion(doc, DefaultFingerprint(), op.start,
                                   op.end, SlotPre(op.slot)));
    } else {
      CHECK_OK(store->DeleteRegions(doc, DefaultFingerprint(),
                                    SlotPre(op.slot)));
    }
  }
}

xquery::ChainQuery SceneSpeechWord(storage::DocId doc) {
  xquery::ChainQuery query;
  query.doc = doc;
  query.context_name = "scene";
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "speech"});
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "word"});
  return query;
}

/// EvaluateChain over `store` under one grid point.
StatusOr<xquery::ChainResult> RunGridPoint(const storage::StoreView* store,
                                           storage::DocId doc,
                                           simd::Level level,
                                           so::PlanMode mode) {
  xquery::Engine engine(store);
  engine.mutable_options()->join.simd = level;
  engine.mutable_options()->plan_mode = mode;
  return engine.EvaluateChain(SceneSpeechWord(doc));
}

/// Flattened node pres of an Evaluate result, in result order.
std::vector<Pre> ResultPres(const algebra::QueryResult& result) {
  std::vector<Pre> pres;
  for (const algebra::Item& item : result.items) {
    pres.push_back(item.stored_node().pre);
  }
  return pres;
}

/// Match pres of a chain result, in (iter, pre) order.
std::vector<Pre> ChainPres(const xquery::ChainResult& result) {
  std::vector<Pre> pres;
  for (const IterMatch& m : result.matches) pres.push_back(m.pre);
  return pres;
}

/// An XMark StandOff document whose every tenth element (never the
/// root) has its start attribute stripped, so some ids of most names
/// carry no base region and a write can give them their first.
std::string XmarkWithBareElements(uint64_t seed) {
  xmark::XmarkOptions options;
  options.scale = 0.002;
  options.seed = seed;
  auto so_doc = xmark::ToStandoff(xmark::GenerateXmark(options));
  CHECK_OK(so_doc);
  if (!so_doc.ok()) return "<site/>";
  std::string out;
  size_t line = 0;
  for (size_t pos = 0; pos < so_doc->xml.size(); ++line) {
    size_t eol = so_doc->xml.find('\n', pos);
    if (eol == std::string::npos) eol = so_doc->xml.size() - 1;
    std::string text = so_doc->xml.substr(pos, eol + 1 - pos);
    const size_t attr = text.find(" start=\"");
    if (line % 10 == 5 && attr != std::string::npos) {
      text.erase(attr, text.find('"', attr + 8) + 1 - attr);
    }
    out += text;
    pos = eol + 1;
  }
  return out;
}

/// A result item as comparable text: kind plus value.
std::string ItemText(const algebra::Item& item) {
  switch (item.kind()) {
    case algebra::Item::Kind::kNode: {
      const algebra::NodeId node = item.stored_node();
      return "n" + std::to_string(node.doc) + ":" + std::to_string(node.pre);
    }
    case algebra::Item::Kind::kInt:
      return "i" + std::to_string(item.int_value());
    case algebra::Item::Kind::kDouble:
      return "d" + std::to_string(item.double_value());
    case algebra::Item::Kind::kString:
      return "s" + item.string_value();
  }
  return "?";
}

std::vector<std::string> ItemTexts(const algebra::QueryResult& result) {
  std::vector<std::string> texts;
  for (const algebra::Item& item : result.items) {
    texts.push_back(ItemText(item));
  }
  return texts;
}

}  // namespace

static void TestMergeBaseDeltaRandomOps() {
  // Shapes: 0 mixed ops, 1 inserts only, 2 tombstones only. Bases run
  // from empty to a few thousand rows; ids repeat (multi-region ids),
  // tombstones and inserts also name ids past the base's, some inserts
  // copy a base row exactly, and a small hot id set makes
  // delete-then-reinsert common.
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    Model model;
    storage::DeltaRun run;
    const int shape = static_cast<int>(seed % 3);
    const int64_t size_pick = rng.UniformRange(0, 3);
    const int base_rows =
        size_pick == 0 ? 0
                       : static_cast<int>(size_pick == 1
                                              ? rng.UniformRange(1, 40)
                                              : rng.UniformRange(1000, 4000));
    const Pre max_id = static_cast<Pre>(std::max(20, base_rows * 2 / 3));
    const int64_t span = std::max<int64_t>(500, base_rows * 4);
    for (int i = 0; i < base_rows; ++i) {
      const int64_t start = rng.UniformRange(0, span);
      model.base.push_back(
          {start, start + rng.UniformRange(0, 100),
           static_cast<Pre>(rng.UniformRange(1, max_id))});
    }
    so::RegionIndex base = so::RegionIndex::FromEntries(model.base);
    // The canonical sort may reorder; keep the model in lockstep.
    model.base = test::Rows(base);

    const auto pick_id = [&]() {
      const int64_t kind = rng.UniformRange(0, 9);
      if (kind < 3) return static_cast<Pre>(rng.UniformRange(1, 8));  // hot
      if (kind == 9) {  // past every base id
        return static_cast<Pre>(max_id + rng.UniformRange(1, 50));
      }
      return static_cast<Pre>(rng.UniformRange(1, max_id));
    };
    uint64_t seq = 0;
    const int op_count = static_cast<int>(
        rng.UniformRange(1, base_rows > 100 ? 120 : 30));
    for (int i = 0; i < op_count; ++i) {
      const bool do_delete =
          shape == 2 || (shape == 0 && rng.UniformRange(0, 2) == 0);
      if (do_delete) {
        const Pre id = pick_id();
        model.Delete(id);
        RunDelete(&run, id, ++seq);
        continue;
      }
      int64_t start, end;
      Pre id;
      if (!model.base.empty() && rng.UniformRange(0, 4) == 0) {
        // An exact copy of a base row: ties the base in the merge.
        const so::RegionEntry& row = model.base[static_cast<size_t>(
            rng.UniformRange(0, static_cast<int64_t>(model.base.size()) - 1))];
        start = row.start;
        end = row.end;
        id = row.id;
      } else {
        start = rng.UniformRange(0, span);
        end = start + rng.UniformRange(0, 100);
        id = pick_id();
      }
      model.Insert(start, end, id);
      RunInsert(&run, start, end, id, ++seq);
    }

    const so::RegionIndex merged = so::MergeBaseDelta(base, run);
    const so::RegionIndex rebuilt = so::RegionIndex::FromEntries(model.Final());
    if (!ColumnsEqual(merged, rebuilt)) {
      std::fprintf(stderr, "  seed %llu: merged %zu rows vs rebuilt %zu\n",
                   static_cast<unsigned long long>(seed), merged.size(),
                   rebuilt.size());
      CHECK(false);
    }
  }
}

static void TestCompactedIdIndexMatchesRebuilt() {
  // A merged index saved by CompactToSnapshot and reopened from the
  // mapping answers ForEachRegionOf (and its columns) like an index
  // rebuilt over the final entry set. Second regions on annotated words
  // make the saved id index multi-region.
  std::vector<Slot> slots = MakeSlots();
  std::vector<DeltaOp> ops = ScriptDeltas(&slots);
  for (size_t i = 0; i < slots.size(); i += 4) {
    if (slots[i].name == "word" && slots[i].has_final) {
      ops.push_back({DeltaOp::kInsert, i, slots[i].final_start + 3,
                     slots[i].final_end + 40});
    }
  }
  const std::string path = TempPath("delta_id_index");
  auto base = std::make_shared<storage::ShardedStore>(1);
  CHECK_OK(base->AddDocumentText("d0", CorpusXml(slots, false)));

  Model model;
  {
    so::RegionIndexCache cache;
    auto index = cache.Get(*base, 0, so::StandoffConfig{});
    CHECK_OK(index);
    if (!index.ok()) return;
    model.base = test::Rows(**index);
  }
  for (const DeltaOp& op : ops) {
    if (op.kind == DeltaOp::kInsert) {
      model.Insert(op.start, op.end, SlotPre(op.slot));
    } else {
      model.Delete(SlotPre(op.slot));
    }
  }
  const so::RegionIndex rebuilt = so::RegionIndex::FromEntries(model.Final());

  storage::MutableStore mutable_store(base);
  ApplyOps(&mutable_store, ops, 0);
  ThreadPool pool(2);
  uint64_t compacted_seq = 0;
  CHECK_OK(mutable_store.CompactToSnapshot(path, &pool, &compacted_seq));
  auto snapshot = storage::Snapshot::Open(path);
  CHECK_OK(snapshot);
  if (snapshot.ok()) {
    so::RegionIndexCache cache;
    auto reopened =
        cache.Get(*(*snapshot)->shared_store(), 0, so::StandoffConfig{});
    CHECK_OK(reopened);
    if (reopened.ok()) CHECK(ColumnsEqual(**reopened, rebuilt));
  }
  std::remove(path.c_str());
}

static void TestDeltaViewMatchesRebuiltAcrossGrid() {
  std::vector<Slot> slots = MakeSlots();
  const std::vector<DeltaOp> ops = ScriptDeltas(&slots);

  for (uint32_t shards : {1u, 3u}) {
    auto base = std::make_shared<storage::ShardedStore>(shards);
    storage::ShardedStore oracle(shards);
    // Two copies of the corpus: deltas land on doc 0 only, so doc 1
    // also checks that untouched documents cost no merge.
    CHECK_OK(base->AddDocumentText("d0", CorpusXml(slots, false)));
    CHECK_OK(base->AddDocumentText("d1", CorpusXml(slots, false)));
    CHECK_OK(oracle.AddDocumentText("d0", CorpusXml(slots, true)));
    CHECK_OK(oracle.AddDocumentText("d1", CorpusXml(slots, false)));

    storage::MutableStore mutable_store(base);
    ApplyOps(&mutable_store, ops, 0);
    auto view = mutable_store.View();
    CHECK(view->live_insert_rows() > 0);
    CHECK(view->live_tombstones() > 0);

    for (simd::Level level : {simd::Level::kScalar, simd::Level::kAuto}) {
      for (so::PlanMode mode :
           {so::PlanMode::kAuto, so::PlanMode::kTopDown,
            so::PlanMode::kBottomUpLast}) {
        for (storage::DocId doc : {storage::DocId{0}, storage::DocId{1}}) {
          auto got = RunGridPoint(view.get(), doc, level, mode);
          auto want = RunGridPoint(&oracle, doc, level, mode);
          CHECK_OK(got);
          CHECK_OK(want);
          if (!got.ok() || !want.ok()) continue;
          CHECK(got->context_ids == want->context_ids);
          if (!(got->matches == want->matches)) {
            std::fprintf(stderr,
                         "  store shards %u doc %u level %d mode %d: %zu vs "
                         "%zu matches\n",
                         shards, doc, static_cast<int>(level),
                         static_cast<int>(mode), got->matches.size(),
                         want->matches.size());
            CHECK(false);
          }
        }
      }
    }
  }
}

static void TestFlworMatchesChainOverDeltas() {
  // A FLWOR StandOff step and the equivalent one-edge EvaluateChain
  // must agree over a delta view — in particular for ids that a delta
  // insert gave a SECOND region: both sides must take every region of
  // a context node, not just its first.
  {
    // a: [0,10] in the base plus a delta [15,30]; b: [20,25] lies only
    // inside a's second region.
    auto base = std::make_shared<storage::ShardedStore>(1);
    CHECK_OK(base->AddDocumentText(
        "d0", "<r><a start=\"0\" end=\"10\"/><b start=\"20\" end=\"25\"/></r>"));
    storage::MutableStore mutable_store(base);
    CHECK_OK(mutable_store.InsertRegion(0, DefaultFingerprint(), 15, 30,
                                        /*id=*/2));
    auto view = mutable_store.View();
    for (xquery::StandoffMode mode : {xquery::StandoffMode::kLoopLifted,
                                      xquery::StandoffMode::kBasicMergeJoin}) {
      xquery::Engine engine(view.get());
      engine.set_standoff_mode(mode);
      auto count = engine.Evaluate("count(//a/select-narrow::b)");
      CHECK_OK(count);
      if (!count.ok()) continue;
      CHECK_EQ(count->items.size(), size_t{1});
      CHECK_EQ(count->items[0].int_value(), int64_t{1});
    }
    xquery::Engine engine(view.get());
    xquery::ChainQuery query;
    query.context_name = "a";
    query.steps.push_back({xquery::Axis::kSelectNarrow, false, "b"});
    auto chain = engine.EvaluateChain(query);
    CHECK_OK(chain);
    if (chain.ok()) CHECK(ChainPres(*chain) == std::vector<Pre>{3});
  }

  const char* const kNames[] = {"a", "b", "c"};
  const std::pair<xquery::Axis, const char*> kAxes[] = {
      {xquery::Axis::kSelectNarrow, "select-narrow"},
      {xquery::Axis::kSelectWide, "select-wide"},
      {xquery::Axis::kRejectNarrow, "reject-narrow"},
      {xquery::Axis::kRejectWide, "reject-wide"},
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    // 30 empty elements under <r> (slot k is pre k + 2), about two in
    // three with a base region.
    const size_t slot_count = 30;
    std::vector<bool> has_base(slot_count);
    std::string xml = "<r>";
    for (size_t k = 0; k < slot_count; ++k) {
      const std::string name = kNames[rng.UniformRange(0, 2)];
      has_base[k] = rng.UniformRange(0, 2) != 0;
      if (has_base[k]) {
        const int64_t start = rng.UniformRange(0, 200);
        xml += "<" + name + " start=\"" + std::to_string(start) +
               "\" end=\"" +
               std::to_string(start + rng.UniformRange(0, 60)) + "\"/>";
      } else {
        xml += "<" + name + "/>";
      }
    }
    xml += "</r>";
    auto base = std::make_shared<storage::ShardedStore>(1);
    CHECK_OK(base->AddDocumentText("d0", xml));
    storage::MutableStore mutable_store(base);
    // The op script: a second region for every fourth base-annotated
    // slot, then random inserts (bare or annotated slots) and deletes.
    size_t second_regions = 0;
    for (size_t k = 0; k < slot_count; k += 4) {
      if (!has_base[k]) continue;
      const int64_t start = rng.UniformRange(0, 200);
      CHECK_OK(mutable_store.InsertRegion(
          0, DefaultFingerprint(), start, start + rng.UniformRange(0, 60),
          SlotPre(k)));
      ++second_regions;
    }
    CHECK(second_regions > 0);
    for (int op = 0; op < 12; ++op) {
      const Pre id = SlotPre(rng.UniformRange(0, slot_count - 1));
      if (rng.UniformRange(0, 3) == 0) {
        CHECK_OK(mutable_store.DeleteRegions(0, DefaultFingerprint(), id));
      } else {
        const int64_t start = rng.UniformRange(0, 200);
        CHECK_OK(mutable_store.InsertRegion(0, DefaultFingerprint(), start,
                                            start + rng.UniformRange(0, 60),
                                            id));
      }
    }
    auto view = mutable_store.View();

    for (const char* context : kNames) {
      for (const char* candidate : kNames) {
        for (const auto& [axis, axis_name] : kAxes) {
          xquery::Engine chain_engine(view.get());
          xquery::ChainQuery query;
          query.context_name = context;
          query.steps.push_back({axis, false, candidate});
          auto chain = chain_engine.EvaluateChain(query);
          CHECK_OK(chain);
          if (!chain.ok()) continue;
          const std::string flwor = std::string("for $c in //") + context +
                                    " return $c/" + axis_name +
                                    "::" + candidate;
          for (xquery::StandoffMode mode :
               {xquery::StandoffMode::kLoopLifted,
                xquery::StandoffMode::kBasicMergeJoin}) {
            xquery::Engine engine(view.get());
            engine.set_standoff_mode(mode);
            auto got = engine.Evaluate(flwor);
            CHECK_OK(got);
            if (!got.ok()) continue;
            if (ResultPres(*got) != ChainPres(*chain)) {
              std::fprintf(stderr, "  seed %llu %s [%s]: %zu vs %zu nodes\n",
                           static_cast<unsigned long long>(seed),
                           flwor.c_str(), xquery::StandoffModeName(mode),
                           got->items.size(), chain->matches.size());
              CHECK(false);
            }
          }
        }
      }
    }
  }
}

static void TestViewCachingAndEmptyDelta() {
  auto base = std::make_shared<storage::ShardedStore>(1);
  std::vector<Slot> slots = MakeSlots();
  CHECK_OK(base->AddDocumentText("d0", CorpusXml(slots, false)));
  storage::MutableStore mutable_store(base);

  // No writes: repeated View() returns the SAME object (the engine
  // reuse key), and its delta hooks report empty.
  auto v1 = mutable_store.View();
  auto v2 = mutable_store.View();
  CHECK(v1.get() == v2.get());
  CHECK_EQ(v1->delta_sequence(), uint64_t{0});
  CHECK(v1->delta_run(0, DefaultFingerprint()) == nullptr);

  // A write invalidates; the next view is new and carries the run.
  CHECK_OK(mutable_store.InsertRegion(0, DefaultFingerprint(), 40, 60,
                                      SlotPre(0)));
  auto v3 = mutable_store.View();
  CHECK(v3.get() != v1.get());
  CHECK_EQ(v3->delta_sequence(), uint64_t{1});
  CHECK(v3->delta_run(0, DefaultFingerprint()) != nullptr);
  // The frozen earlier view still sees nothing (reader isolation).
  CHECK(v1->delta_run(0, DefaultFingerprint()) == nullptr);
}

static void TestWriteValidation() {
  auto base = std::make_shared<storage::ShardedStore>(1);
  std::vector<Slot> slots = MakeSlots();
  CHECK_OK(base->AddDocumentText("d0", CorpusXml(slots, false)));
  storage::MutableStore mutable_store(base);

  CHECK(!mutable_store.InsertRegion(9, DefaultFingerprint(), 0, 1, 1).ok());
  CHECK(!mutable_store.InsertRegion(0, DefaultFingerprint(), 5, 4, 1).ok());
  CHECK(!mutable_store
             .InsertRegion(0, DefaultFingerprint(), 0, 1, Pre{1u << 30})
             .ok());
  CHECK(!mutable_store.DeleteRegions(7, DefaultFingerprint(), 1).ok());
  CHECK_EQ(mutable_store.sequence(), uint64_t{0});
}

static void TestCompactionMidBatch() {
  std::vector<Slot> slots = MakeSlots();
  const std::vector<DeltaOp> ops = ScriptDeltas(&slots);
  const std::string path = TempPath("delta_compact");

  auto base = std::make_shared<storage::ShardedStore>(1);
  CHECK_OK(base->AddDocumentText("d0", CorpusXml(slots, false)));
  storage::MutableStore mutable_store(base);
  ApplyOps(&mutable_store, ops, 0);

  ThreadPool pool(2);
  uint64_t compacted_seq = 0;
  CHECK_OK(mutable_store.CompactToSnapshot(path, &pool, &compacted_seq));
  CHECK_EQ(compacted_seq, mutable_store.sequence());

  // Mid-compaction writes: issued AFTER the freeze, BEFORE adoption.
  // Delete a region the compaction just folded into the base (a
  // reinserted one), and insert a fresh one.
  std::vector<size_t> bare, words;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].name != "word") continue;
    (slots[i].has_final ? words : bare).push_back(i);
  }
  CHECK(!words.empty() && !bare.empty());
  slots[words[0]].has_final = false;
  CHECK_OK(mutable_store.DeleteRegions(0, DefaultFingerprint(),
                                       SlotPre(words[0])));
  slots[bare[0]].has_final = true;
  slots[bare[0]].final_start = 123;
  slots[bare[0]].final_end = 456;
  CHECK_OK(mutable_store.InsertRegion(0, DefaultFingerprint(), 123, 456,
                                      SlotPre(bare[0])));

  auto snapshot = storage::Snapshot::Open(path);
  CHECK_OK(snapshot);
  if (!snapshot.ok()) return;
  mutable_store.AdoptCompacted(compacted_seq, (*snapshot)->shared_store());
  snapshot->reset();

  CHECK_EQ(mutable_store.stats().compactions, uint64_t{1});
  // Rebased runs hold exactly the two post-freeze ops.
  auto view = mutable_store.View();
  CHECK_EQ(view->live_insert_rows(), size_t{1});
  CHECK_EQ(view->live_tombstones(), size_t{1});

  // Full differential: compacted base + rebased delta == rebuilt final.
  storage::ShardedStore oracle(1);
  CHECK_OK(oracle.AddDocumentText("d0", CorpusXml(slots, true)));
  auto got =
      RunGridPoint(view.get(), 0, simd::Level::kAuto, so::PlanMode::kAuto);
  auto want =
      RunGridPoint(&oracle, 0, simd::Level::kAuto, so::PlanMode::kAuto);
  CHECK_OK(got);
  CHECK_OK(want);
  if (got.ok() && want.ok()) {
    CHECK(got->context_ids == want->context_ids);
    CHECK(got->matches == want->matches);
  }

  // A second compaction with NO pending ops at the frozen point must
  // leave runs empty afterwards.
  const std::string path2 = TempPath("delta_compact2");
  uint64_t seq2 = 0;
  CHECK_OK(mutable_store.CompactToSnapshot(path2, &pool, &seq2));
  auto reopened = storage::Snapshot::Open(path2);
  CHECK_OK(reopened);
  if (reopened.ok()) {
    mutable_store.AdoptCompacted(seq2, (*reopened)->shared_store());
    auto final_view = mutable_store.View();
    CHECK_EQ(final_view->live_insert_rows(), size_t{0});
    CHECK_EQ(final_view->live_tombstones(), size_t{0});
    auto got = RunGridPoint(final_view.get(), 0, simd::Level::kAuto,
                            so::PlanMode::kAuto);
    auto want =
        RunGridPoint(&oracle, 0, simd::Level::kAuto, so::PlanMode::kAuto);
    CHECK_OK(got);
    CHECK_OK(want);
    if (got.ok() && want.ok()) CHECK(got->matches == want->matches);
  }
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

static void TestIndexStatsFollowStandoffType() {
  // Deltas under the default fingerprint change the "auto" index only:
  // the "timecode" index of the same document is the bare base. A
  // warm engine that planned an "auto" chain must plan the "timecode"
  // chain exactly as a fresh engine does — from the timecode index's
  // own stats, not the cached stats of the "auto" index.
  std::string xml = "<r>";
  for (int i = 0; i < 20; ++i) {
    const int start = i * 50;
    xml += "<a start=\"" + std::to_string(start) + "\" end=\"" +
           std::to_string(start + 4) + "\"/>";
  }
  for (int i = 0; i < 6; ++i) xml += "<b/>";
  xml += "</r>";
  auto base = std::make_shared<storage::ShardedStore>(1);
  CHECK_OK(base->AddDocumentText("d0", xml));
  storage::MutableStore mutable_store(base);
  for (Pre k = 0; k < 6; ++k) {
    const int64_t start = 100 * static_cast<int64_t>(k);
    CHECK_OK(mutable_store.InsertRegion(0, DefaultFingerprint(), start,
                                        start + 400, /*id=*/22 + k));
  }
  auto view = mutable_store.View();

  xquery::ChainQuery query;
  query.context_any = true;
  query.steps.push_back({xquery::Axis::kSelectNarrow, true, ""});
  xquery::ChainQuery timecode = query;
  timecode.standoff_type = "timecode";

  xquery::Engine warm(view.get());
  CHECK_OK(warm.EvaluateChain(query));
  auto warm_result = warm.EvaluateChain(timecode);
  xquery::Engine fresh(view.get());
  auto fresh_result = fresh.EvaluateChain(timecode);
  CHECK_OK(warm_result);
  CHECK_OK(fresh_result);
  if (!warm_result.ok() || !fresh_result.ok()) return;
  CHECK_EQ(warm_result->plan.Describe(), fresh_result->plan.Describe());
  CHECK(warm_result->matches == fresh_result->matches);
}

static void TestRebasedEngineMatchesFresh() {
  // Writes land on names the queries read and on names they do not,
  // under two standoff types of two documents on two shards, all served
  // by one engine. After each round of writes the carried engine is
  // rebased onto the new view and must answer every chain (all four axes, `*` contexts and steps, 1-3
  // steps, memo on) and every Figure 6 FLWOR (loop-lifted) exactly as a
  // fresh engine over that view. The carried stats are exact, so the
  // planner picks the same plan too. Every eighth round drops all runs
  // at once (ResetBase to the same base): a key's names then come from
  // the OLD run only.
  const std::vector<std::string> kRead = {
      "open_auction", "bidder", "increase", "person", "profile",
      "interest", "item", "description", "emailaddress", "location"};
  const std::vector<std::string> kUnread = {"zipcode", "phone", "street",
                                            "city"};
  const std::vector<std::string> kContexts = {"open_auction", "person",
                                              "item", "regions", "*"};
  const xquery::Axis kAxes[] = {
      xquery::Axis::kSelectNarrow, xquery::Axis::kSelectWide,
      xquery::Axis::kRejectNarrow, xquery::Axis::kRejectWide};
  const std::string kTypes[] = {"auto", "timecode"};
  const auto fingerprint = [](const std::string& type) {
    so::StandoffConfig config;
    config.type = type;
    return so::ConfigFingerprint(config);
  };

  uint64_t carried_hits = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    auto base = std::make_shared<storage::ShardedStore>(2);
    CHECK_OK(base->AddDocumentText("d0", XmarkWithBareElements(seed)));
    CHECK_OK(base->AddDocumentText("d1", XmarkWithBareElements(seed + 100)));
    storage::MutableStore mutable_store(base);

    std::vector<xquery::ChainQuery> chains;
    for (int q = 0; q < 16; ++q) {
      xquery::ChainQuery query;
      query.doc = static_cast<storage::DocId>(rng.UniformRange(0, 1));
      query.standoff_type = kTypes[rng.UniformRange(0, 3) == 0 ? 1 : 0];
      query.context_name = kContexts[rng.UniformRange(0, 4)];
      query.context_any = query.context_name == "*";
      const int64_t steps = rng.UniformRange(1, 3);
      for (int64_t k = 0; k < steps; ++k) {
        xquery::ChainStep step;
        step.any_name = rng.UniformRange(0, 7) == 0;
        if (!step.any_name) step.name = kRead[rng.UniformRange(0, 9)];
        // A reject- step from every element, or onto every element,
        // yields near the cross product; keep those to select- axes.
        const bool wide_open = step.any_name || query.context_any;
        step.axis = kAxes[rng.UniformRange(0, wide_open ? 1 : 3)];
        query.steps.push_back(step);
      }
      chains.push_back(std::move(query));
    }
    std::vector<std::string> flwors;
    for (const xmark::XmarkQuery& q : xmark::BenchmarkQueries()) {
      flwors.push_back(q.standoff);
      flwors.push_back(std::string("declare option standoff-type ") +
                       "\"timecode\"; " + q.standoff);
    }

    // Write coordinates copy (and jitter) base regions, so inserted
    // regions nest among the existing ones and move join results.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> regions(2);
    for (storage::DocId doc = 0; doc < 2; ++doc) {
      so::RegionIndexCache cache;
      auto index = cache.Get(*base, doc, so::StandoffConfig{});
      CHECK_OK(index);
      if (!index.ok()) return;
      const so::RegionColumns cols = (*index)->columns();
      for (size_t i = 0; i < cols.size; ++i) {
        regions[doc].emplace_back(cols.start[i], cols.end[i]);
      }
    }
    const auto ids_named = [&](storage::DocId doc, const std::string& name) {
      return base->document(doc).element_index.Lookup(
          base->names().Lookup(name));
    };

    std::shared_ptr<const storage::DeltaStoreView> view = mutable_store.View();
    xquery::Engine carried(view.get());
    for (int round = 0; round < 24; ++round) {
      if (round > 0) {
        const int64_t writes = round % 8 == 0 ? 0 : rng.UniformRange(1, 3);
        if (writes == 0) mutable_store.ResetBase(base);
        for (int64_t w = 0; w < writes; ++w) {
          const storage::DocId doc =
              static_cast<storage::DocId>(rng.UniformRange(0, 1));
          const std::string fp =
              fingerprint(kTypes[rng.UniformRange(0, 3) == 0 ? 1 : 0]);
          const std::vector<std::string>& pool =
              rng.UniformRange(0, 1) == 0 ? kRead : kUnread;
          const storage::Span<Pre> ids = ids_named(
              doc, pool[rng.UniformRange(
                       0, static_cast<int64_t>(pool.size()) - 1)]);
          if (ids.size() == 0) continue;
          // A hot prefix of each name's ids makes repeated writes to one
          // id (second regions, delete-then-reinsert) common; every
          // tenth element starts bare, so some inserts are its first.
          const Pre id = ids[rng.UniformRange(
              0, std::min<int64_t>(5, static_cast<int64_t>(ids.size()) - 1))];
          const auto& [start, end] = regions[doc][rng.UniformRange(
              0, static_cast<int64_t>(regions[doc].size()) - 1)];
          const int64_t shift = rng.UniformRange(-2, 2);
          switch (rng.UniformRange(0, 3)) {
            case 0:
              CHECK_OK(mutable_store.DeleteRegions(doc, fp, id));
              break;
            case 1:
              CHECK_OK(mutable_store.DeleteRegions(doc, fp, id));
              [[fallthrough]];
            default:
              CHECK_OK(mutable_store.InsertRegion(
                  doc, fp, std::max<int64_t>(0, start + shift),
                  std::max<int64_t>(0, end + shift), id));
          }
        }
        // Rebase onto the new view while the old one is still pinned.
        std::shared_ptr<const storage::DeltaStoreView> next =
            mutable_store.View();
        carried.Rebase(next.get());
        view = std::move(next);
      }

      xquery::Engine fresh(view.get());
      for (size_t q = 0; q < chains.size(); ++q) {
        auto got = carried.EvaluateChain(chains[q]);
        auto want = fresh.EvaluateChain(chains[q]);
        CHECK_OK(got);
        CHECK_OK(want);
        if (!got.ok() || !want.ok()) continue;
        if (round > 0) carried_hits += got->stats.memo_hits;
        if (got->context_ids != want->context_ids ||
            !(got->matches == want->matches) ||
            got->plan.Describe() != want->plan.Describe()) {
          std::fprintf(stderr,
                       "  seed %llu round %d chain %zu: %zu vs %zu matches\n",
                       static_cast<unsigned long long>(seed), round, q,
                       got->matches.size(), want->matches.size());
          CHECK(false);
        }
      }
      for (const std::string& flwor : flwors) {
        auto got = carried.Evaluate(flwor);
        auto want = fresh.Evaluate(flwor);
        CHECK_OK(got);
        CHECK_OK(want);
        if (!got.ok() || !want.ok()) continue;
        if (ItemTexts(*got) != ItemTexts(*want)) {
          std::fprintf(stderr, "  seed %llu round %d: %s differs\n",
                       static_cast<unsigned long long>(seed), round,
                       flwor.c_str());
          CHECK(false);
        }
      }
    }
  }
  // The carried engine really carried memo entries across writes.
  CHECK(carried_hits > 0);
}

int main() {
  RUN_TEST(TestMergeBaseDeltaRandomOps);
  RUN_TEST(TestCompactedIdIndexMatchesRebuilt);
  RUN_TEST(TestDeltaViewMatchesRebuiltAcrossGrid);
  RUN_TEST(TestFlworMatchesChainOverDeltas);
  RUN_TEST(TestIndexStatsFollowStandoffType);
  RUN_TEST(TestRebasedEngineMatchesFresh);
  RUN_TEST(TestViewCachingAndEmptyDelta);
  RUN_TEST(TestWriteValidation);
  RUN_TEST(TestCompactionMidBatch);
  TEST_MAIN();
}
