// Multi-predicate region-algebra plans: chains of containment, overlap,
// and reject predicates over three or more region sets, executed as a
// sequence of loop-lifted StandOff merge joins.
//
// A ChainSpec is the algebra: a loop-lifted context layer (the chain's
// top region set, one loop iteration per context annotation) and one
// ChainEdge per predicate, each naming the operator and the candidate
// layer it joins the running context against. Evaluating edge k's join
// yields the (iter, node) matches of layer k+1; for a non-final edge
// the matched nodes' regions become the context rows of the next join.
//
// PlanChain is the cost-based planner. From per-layer RegionStats
// (count, span, width histogram — computed once when a layer is built)
// it estimates each edge's match fraction and chooses
//
//   * the JOIN ORDER: kTopDown evaluates edges first-to-last — always
//     legal, and optimal when the top context is small; kBottomUpLast
//     (all-select chains only) evaluates the LAST edge first over the
//     second-to-last layer's rows, drops every id of that layer whose
//     rows all missed (an id with one matching region keeps ALL its
//     regions — matching is per id, as top-down sees it), runs the
//     remaining chain top-down against the filtered layer, and
//     composes — a win when the final edge is by far the most
//     selective and the intermediate fanout is large;
//   * per-edge KERNEL OPTIONS: galloping on when the merge is expected
//     to be output-bounded (sparse matches), off when the pass is
//     dense and the binary searches would outnumber the rows skipped.
//
// SubPlanMemo is the one sub-plan sharing mechanism: evaluated (doc,
// layer, predicate-prefix) results live in a refcounted,
// capacity-bounded LRU memo keyed by canonical key strings with
// full-key verification on every hit. Engine::EvaluateChain probes it
// for the longest cached prefix and fills it from the prefix sink.
//
// Every order and option combination returns byte-identical results:
// the planner only moves work, never semantics — pinned by the chain
// differential suite against the brute-force oracle.
#ifndef STANDOFF_STANDOFF_PLAN_H_
#define STANDOFF_STANDOFF_PLAN_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "standoff/merge_join.h"
#include "standoff/region_index.h"
#include "storage/column_stats.h"

namespace standoff {
namespace so {

/// One candidate layer of a chain: a start-sorted candidate view, the
/// sorted candidate universe (what reject- edges complement against),
/// the index that can map a matched id back to its regions, and the
/// layer's precomputed statistics. Views are borrowed — the owner
/// (RegionIndex, cached candidate set) must outlive the chain.
struct ChainLayer {
  RegionColumns columns;
  /// Candidate universe view; `ids_set` distinguishes a legitimately
  /// empty universe (unknown name) from a layer never given one.
  storage::Span<storage::Pre> ids;
  bool ids_set = false;
  const RegionIndex* index = nullptr;
  storage::RegionStats stats;
};

/// One predicate edge: join the running context against `layer` under
/// `op`. `post` (optional) canonicalizes the edge's matches before they
/// feed the next edge — the engine uses it to name-filter matches when
/// an edge runs without candidate pushdown.
struct ChainEdge {
  StandoffOp op = StandoffOp::kSelectNarrow;
  ChainLayer layer;
  std::function<Status(std::vector<IterMatch>*)> post;
};

/// The chain algebra: context rows (the paper's loop-lifted table) plus
/// one edge per predicate. `edges.size() >= 1`; a chain over N region
/// sets has N-1 edges.
struct ChainSpec {
  std::vector<IterRegion> context;
  uint32_t iter_count = 0;
  storage::RegionStats context_stats;  // over the context rows
  std::vector<ChainEdge> edges;
};

enum class ChainOrder {
  kTopDown,
  kBottomUpLast,
};

const char* ChainOrderName(ChainOrder order);

/// Planner input knob: kAuto cost-compares the legal orders; the forced
/// modes pin one (kBottomUpLast silently degrades to kTopDown when the
/// chain shape makes it illegal — fewer than two edges or any reject).
enum class PlanMode {
  kAuto,
  kTopDown,
  kBottomUpLast,
};

struct EdgePlan {
  StandoffOp op = StandoffOp::kSelectNarrow;
  bool gallop = true;
  double est_match_fraction = 0;  // of the layer's rows, per context row
  double est_cost = 0;
};

struct ChainPlan {
  ChainOrder order = ChainOrder::kTopDown;
  std::vector<EdgePlan> edges;
  double est_cost = 0;
  double est_cost_top_down = 0;       // both orders' estimates, for
  double est_cost_bottom_up = 0;      // introspection (0 = not legal)

  std::string Describe() const;
};

/// Execution counters, for tests and the bench: which path ran and how
/// much work each stage saw.
struct ChainStats {
  size_t joins_run = 0;
  size_t context_rows_total = 0;   // summed over all executed joins
  size_t bottom_up_kept_rows = 0;  // filtered middle-layer rows kept
  size_t bottom_up_dropped_rows = 0;
  size_t composed_matches = 0;     // low-edge matches visited in compose
  /// Sub-plan memo probe outcomes for this execution (engine sharing
  /// path): probes served from cache, probes that had to evaluate, and
  /// entries evicted while this execution ran.
  size_t memo_hits = 0;
  size_t memo_misses = 0;
  size_t memo_evictions = 0;
};

/// Memo of evaluated sub-plan results, keyed by a canonical key string
/// naming (doc, standoff type, context, predicate prefix). The index is
/// a hash map over the full key strings, so a hit always means an equal
/// key: two different sub-plans can never alias, whatever their hashes
/// (pinned by the memo-poisoning regression test). Entries are
/// refcounted (shared_ptr): a consumer holding a result keeps it alive
/// across eviction. Capacity-bounded with LRU eviction. NOT thread-safe
/// — each engine owns one and probes it from one thread at a time.
class SubPlanMemo {
 public:
  /// What a sub-plan result was computed from: one (document, config
  /// fingerprint) region index and the element names of its context and
  /// steps. A rebase onto a new delta view keeps the entry unless a
  /// write to that key carried one of these names (Engine::Rebase).
  struct Reads {
    storage::DocId doc = 0;
    std::string fingerprint;
    bool all_names = false;  // the context or a step is `*`
    std::vector<storage::NameId> names;
  };
  struct Entry {
    std::vector<IterMatch> matches;  // the sub-plan's final matches
    Reads reads;
  };

  explicit SubPlanMemo(size_t capacity = 256)
      : capacity_(capacity ? capacity : 1) {}

  /// Null on miss. A hit refreshes the entry's LRU position.
  std::shared_ptr<const Entry> Lookup(const std::string& key);
  /// Inserts (or replaces) `key`, evicting the least-recently-used
  /// entry when over capacity.
  void Insert(const std::string& key, std::shared_ptr<const Entry> entry);
  void Clear();
  /// Erases every entry `drop` accepts; these are not evictions.
  void EraseIf(const std::function<bool(const Entry&)>& drop);

  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t evictions() const { return evictions_; }

 private:
  struct Node {
    std::string key;
    std::shared_ptr<const Entry> entry;
  };
  using LruIter = std::list<Node>::iterator;

  size_t capacity_;
  std::list<Node> lru_;  // front = most recently used
  /// Keys are views of the list nodes' own key strings (list nodes
  /// never move), erased before their node.
  std::unordered_map<std::string_view, LruIter> by_key_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
};

/// Receives the matches of the prefix ending at `edge` (spec order).
using PrefixSink =
    std::function<Status(size_t edge, const std::vector<IterMatch>& matches)>;

struct ChainExecOptions {
  /// Kernel knobs and scratch for every join in the chain. An edge
  /// gallops only when both `join.gallop` and its estimate say so: the
  /// caller can turn galloping off, the cost model can only decline it.
  JoinOptions join;
  /// Called before every join (deadline checks); null means never.
  const std::function<Status()>* checkpoint = nullptr;
  /// Called after every top-down edge, or once with the final matches
  /// under bottom-up (whose upper chain ends at a filtered layer, so
  /// materializes no true prefix); null means never.
  const PrefixSink* prefix_sink = nullptr;
};

/// Cost-based plan for `spec` under `mode`. Pure estimation — never
/// touches the region data, only the precomputed stats.
ChainPlan PlanChain(const ChainSpec& spec, PlanMode mode = PlanMode::kAuto);

/// The one chain executor (EvaluateChain and the FLWOR StandOff step
/// both run through it): executes `spec` in `plan`'s order. Output is
/// sorted by (iter, pre) and duplicate-free — byte-identical across
/// orders and gallop settings. The first edge gallops as planned; each
/// later edge re-prices its choice from the rows it materialized (count
/// and average width), and bottom-up's filtered layer from its stats
/// and the filtered row count.
Status ExecuteChain(const ChainSpec& spec, const ChainPlan& plan,
                    const ChainExecOptions& options,
                    std::vector<IterMatch>* out, ChainStats* stats = nullptr);

/// RegionStats over context rows (a spec's `context_stats`).
storage::RegionStats ContextStats(const std::vector<IterRegion>& ctx);

/// (iter, node) pairs to loop-lifted context rows: one (iter, start,
/// end) row per region of each node (RegionIndex::ForEachRegionOf), in
/// input order. The one way a context is built — a chain's top context,
/// each edge's matches for the next edge, and a FLWOR StandOff step's
/// context nodes.
void MatchesToContext(const std::vector<IterMatch>& matches,
                      const RegionIndex& index,
                      std::vector<IterRegion>* ctx);

}  // namespace so
}  // namespace standoff

#endif  // STANDOFF_STANDOFF_PLAN_H_
