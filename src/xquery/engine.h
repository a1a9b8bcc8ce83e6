// The query engine: loop-lifted evaluation of the supported XQuery
// subset over a DocumentStore. FLWOR iteration spaces are represented as
// (iteration, item) row sequences, so an axis step inside a for-loop is
// evaluated for ALL iterations at once — which is what lets a StandOff
// step run as a single Loop-Lifted StandOff MergeJoin.
//
// There is one loop-lifted StandOff path. EvaluateChain and a FLWOR
// StandOff step both build their context rows with so::MatchesToContext
// (every region of every context node), pick the candidate layer with
// GetChainLayer (name pushdown or whole index + name filter), and run
// PlanChain / ExecuteChain with the same deadline checkpoint; a FLWOR
// step is simply a one-edge chain.
//
// The four StandoffMode settings correspond to the implementation
// alternatives of the paper's Figure 6 and only differ in how the
// select-/reject- axes execute; results are identical over a plain
// store (see the UDF caveat below for pending deltas).
#ifndef STANDOFF_XQUERY_ENGINE_H_
#define STANDOFF_XQUERY_ENGINE_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "standoff/merge_join.h"
#include "standoff/plan.h"
#include "standoff/region_index.h"
#include "storage/column_stats.h"
#include "storage/document_store.h"
#include "storage/sharded_store.h"
#include "xquery/algebra.h"
#include "xquery/ast.h"

namespace standoff {
namespace xquery {

/// The paper's Figure 6 implementation alternatives for a StandOff step.
/// The two UDF modes read candidate regions from the node table's
/// attributes (StandoffUdfPerIteration), not from the region index, so
/// over a delta view they do not see pending InsertRegion/DeleteRegions
/// writes on the candidate side. The merge-join modes read the merged
/// (base ⊎ delta) index and do.
enum class StandoffMode {
  /// Per-iteration quadratic evaluation against every annotation in the
  /// document, rebuilding the candidate regions from attribute strings on
  /// each call — the paper's XQuery-function formulation without a
  /// candidate sequence.
  kUdfNoCandidates,
  /// As above, but the name test restricts the candidates first.
  kUdfCandidates,
  /// Basic StandOff MergeJoin: one merge pass over the full region index
  /// per loop iteration (name test applied afterwards).
  kBasicMergeJoin,
  /// Loop-Lifted StandOff MergeJoin: the step runs as a one-edge chain
  /// — name-test pushdown through the element-name index when the name
  /// is selective, then ONE planned merge pass for all iterations.
  kLoopLifted,
};

const char* StandoffModeName(StandoffMode mode);

/// The engine layer of the options scheme (DESIGN.md §15): wraps the
/// kernel-level so::JoinOptions with planner knobs. There is ONE
/// derivation path downward — Engine::DeriveChainExec — so a kernel
/// flag set here reaches every join without field-by-field copying;
/// `join.gallop = false` in particular turns galloping off on every
/// chain edge and FLWOR step, whatever the planner would choose.
/// The SIMD dispatch level lives in `join.simd`; the differential
/// sweeps set it there directly.
struct EngineOptions {
  /// Per-Evaluate wall-clock budget in seconds; <= 0 means unlimited.
  double timeout_seconds = 0;
  so::JoinOptions join;  // forwarded to the merge-join kernels
  /// Chain-planner order selection: kAuto cost-compares; the forced
  /// modes pin an order for testing. (A FLWOR step is a one-edge chain,
  /// so only the per-edge gallop choice applies to it.)
  so::PlanMode plan_mode = so::PlanMode::kAuto;
  /// Cross-query sub-plan sharing (EvaluateChain): canonical
  /// (doc, type, context, predicate-prefix) keys are probed against the
  /// engine's SubPlanMemo; the longest cached prefix's matches replace
  /// re-evaluating that prefix, and the suffix is re-planned against
  /// the MATERIALIZED cardinalities of the cached result. Results are
  /// byte-identical to evaluation with sharing off (differential-
  /// pinned). Off = every chain evaluates from scratch.
  bool share_subplans = true;
};

/// One predicate step of a multi-predicate chain query: a StandOff axis
/// plus a name test on the layer it selects from.
struct ChainStep {
  Axis axis = Axis::kSelectNarrow;
  bool any_name = false;
  std::string name;
};

/// A multi-predicate region query: the context layer (every annotated
/// element named `context_name`, one loop iteration per element in
/// document order) chained through `steps`. Three region sets — e.g.
/// scene ⊃ speech ⊃ word — are a context plus two steps.
struct ChainQuery {
  storage::DocId doc = 0;
  std::string context_name;
  bool context_any = false;      // context = every annotated element
  std::vector<ChainStep> steps;  // at least one
  std::string standoff_type = "auto";
};

struct ChainResult {
  /// Final-layer matches; `iter` indexes `context_ids`.
  std::vector<so::IterMatch> matches;
  /// Iteration -> context element, in document order.
  std::vector<storage::Pre> context_ids;
  so::ChainPlan plan;
  so::ChainStats stats;
};

class Engine {
 public:
  /// Any StoreView works: a plain DocumentStore, a ShardedStore, a
  /// snapshot-backed store, or a delta view — the engine reads store
  /// geometry and node tables through the interface only, and its
  /// region-index cache consults StoreView::delta_run so pending
  /// deltas are merged transparently.
  explicit Engine(const storage::StoreView* store) : store_(store) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  StatusOr<algebra::QueryResult> Evaluate(const std::string& query_text);

  /// Plans and executes a multi-predicate chain query: candidate
  /// pushdown per layer (skipped when the name covers most of the
  /// index — matches are then name-filtered after the join), then
  /// PlanChain / ExecuteChain over the cached layers.
  StatusOr<ChainResult> EvaluateChain(const ChainQuery& query);

  /// Re-points the engine at `next`, a view over the SAME base as the
  /// current store whose delta runs may differ (DESIGN.md §15). Cached
  /// state under a (document, config) key survives when the key's run is
  /// the same object in both views. Otherwise the whole-index stats and
  /// `*` memo entries drop, and so do the candidate sets and memo entries
  /// that read an element name carried by an id in either run; the rest
  /// is exact as it stands. The current store must stay alive until this
  /// returns: it is read to compare the runs.
  void Rebase(const storage::StoreView* next);

  void set_standoff_mode(StandoffMode mode) { mode_ = mode; }
  StandoffMode standoff_mode() const { return mode_; }
  EngineOptions* mutable_options() { return &options_; }

  /// The engine's sub-plan memo, for counter inspection and Clear() in
  /// tests and benches.
  so::SubPlanMemo* subplan_memo() { return &subplan_memo_; }

 private:
  struct Env;  // variable bindings, defined in engine.cc

  using Lifted = algebra::Lifted;

  Status EvalExpr(const Expr& expr, const Env& env, uint32_t iter_count,
                  Lifted* out);
  Status EvalPath(const Expr& expr, const Env& env, uint32_t iter_count,
                  Lifted* out);
  Status EvalFor(const Expr& expr, const Env& env, uint32_t iter_count,
                 Lifted* out);
  Status EvalCount(const Expr& expr, const Env& env, uint32_t iter_count,
                   Lifted* out);
  Status EvalAdd(const Expr& expr, const Env& env, uint32_t iter_count,
                 Lifted* out);

  Status ApplyStep(const Step& step, Lifted* rows);
  Status ApplyNavigationStep(const Step& step, Lifted* rows);
  Status ApplyStandoffStep(const Step& step, Lifted* rows);
  Status ApplyPredicate(const Expr& pred, Lifted* rows);

  // The per-iteration StandoffMode baselines for one standoff step over
  // one document (kLoopLifted runs the step as a one-edge chain).
  Status StandoffBasicPerIteration(so::StandoffOp op, storage::DocId doc,
                                   const std::vector<so::IterRegion>& context,
                                   const Step& step,
                                   std::vector<so::IterMatch>* matches);
  Status StandoffUdfPerIteration(so::StandoffOp op, storage::DocId doc,
                                 const std::vector<so::IterRegion>& context,
                                 const Step& step, bool with_candidates,
                                 std::vector<so::IterMatch>* matches);

  StatusOr<const so::RegionIndex*> GetIndex(storage::DocId doc);

  /// Name-test pushdown: cached (columns ∩ name, ids ∩ name) per
  /// (doc, config, name). any_name uses the full index.
  struct CandidateSet {
    so::RegionColumnsData entries;
    std::vector<storage::Pre> ids;
    storage::RegionStats stats;
  };
  /// What the engine derives from one (document, config fingerprint)
  /// region index, the unit Rebase invalidates: the whole-index stats
  /// (every name) and the candidate sets by element name.
  struct KeyState {
    std::optional<storage::RegionStats> index_stats;
    std::map<std::string, CandidateSet> candidates;
  };
  /// `doc`'s state under the current standoff config.
  KeyState& StateOf(storage::DocId doc);
  StatusOr<const CandidateSet*> GetCandidates(storage::DocId doc,
                                              const std::string& name);

  /// A chain layer for one step: the pushed-down candidate set when the
  /// name is selective, the whole index (plus a name post-filter on the
  /// matches) when the name covers most of it or matches everything.
  StatusOr<so::ChainLayer> GetChainLayer(storage::DocId doc,
                                         const ChainStep& step,
                                         so::ChainEdge* edge);

  /// Stats of `index` = GetIndex(doc), cached under the index's own
  /// (document, config fingerprint) key: two standoff types of one
  /// document are two indexes with their own stats.
  const storage::RegionStats* GetIndexStats(storage::DocId doc,
                                            const so::RegionIndex& index);

  Status CheckDeadline() const;
  bool NameMatches(const Step& step, storage::DocId doc,
                   storage::Pre pre) const;

  /// The sharing path of EvaluateChain: probe the memo for the longest
  /// cached predicate prefix, execute only the suffix (re-planned over
  /// the cached result's real cardinalities), and populate the memo
  /// with every newly evaluated prefix. `keys[k]` is the canonical key
  /// of the prefix ending at edge k.
  Status EvaluateChainShared(const ChainQuery& query,
                             const so::ChainSpec& spec,
                             const so::RegionIndex& index,
                             const std::vector<std::string>& keys,
                             const so::ChainExecOptions& exec,
                             ChainResult* result);

  /// What the prefix of `query` ending at edge `last` reads, recorded
  /// on its memo entry for Rebase.
  so::SubPlanMemo::Reads PrefixReads(const ChainQuery& query,
                                     size_t last) const;

  /// The single downward derivation of the options scheme: expands
  /// EngineOptions into the kernel knobs, the engine's merge arena and
  /// the deadline checkpoint that every loop-lifted join — chain edge
  /// or FLWOR step — consumes.
  so::ChainExecOptions DeriveChainExec();

  const storage::StoreView* store_;
  StandoffMode mode_ = StandoffMode::kLoopLifted;
  EngineOptions options_;
  so::StandoffConfig standoff_config_;
  so::RegionIndexCache index_cache_;
  std::map<std::pair<storage::DocId, std::string>, KeyState> key_state_;
  /// Merge scratch for every join the engine runs (one at a time; no
  /// join runs inside another), so a warmed engine runs its merge
  /// passes allocation-free.
  so::JoinArena arena_;
  so::SubPlanMemo subplan_memo_;  // 256 entries, shared by every document
  Timer deadline_timer_;
  double deadline_seconds_ = 0;  // active budget for the running Evaluate
  /// CheckDeadline as the chain executor's between-join checkpoint.
  /// Captures `this`, so an Engine is never copied or moved.
  const std::function<Status()> checkpoint_ = [this] {
    return CheckDeadline();
  };
};

/// perfbench's per-connection dispatch, which picks an engine per
/// document shard: every shard maps to the one engine. It goes, together
/// with StoreView's shard map, in a later change to the benchmark.
class BatchEngine {
 public:
  BatchEngine(const storage::StoreView* store, EngineOptions options)
      : shards_(store->shard_count()), engine_(store) {
    *engine_.mutable_options() = std::move(options);
  }
  Engine* shard_engine(uint32_t shard) {
    return shard < shards_ ? &engine_ : nullptr;
  }

 private:
  uint32_t shards_;
  Engine engine_;
};

}  // namespace xquery
}  // namespace standoff

#endif  // STANDOFF_XQUERY_ENGINE_H_
