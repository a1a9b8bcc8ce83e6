#include "xquery/engine.h"

#include <algorithm>
#include <optional>

#include "storage/delta.h"
#include "xquery/parser.h"

namespace standoff {
namespace xquery {

using algebra::Item;
using algebra::Lifted;
using algebra::NodeId;
using algebra::Row;

const char* StandoffModeName(StandoffMode mode) {
  switch (mode) {
    case StandoffMode::kUdfNoCandidates: return "udf-no-candidates";
    case StandoffMode::kUdfCandidates: return "udf-candidates";
    case StandoffMode::kBasicMergeJoin: return "basic-mergejoin";
    case StandoffMode::kLoopLifted: return "loop-lifted-mergejoin";
  }
  return "?";
}

struct Engine::Env {
  std::map<std::string, Lifted> vars;
};

namespace {

bool RowNodeLess(const Row& a, const Row& b) {
  if (a.iter != b.iter) return a.iter < b.iter;
  const NodeId na = a.item.stored_node();
  const NodeId nb = b.item.stored_node();
  return na < nb;
}

bool RowNodeEqual(const Row& a, const Row& b) {
  return a.iter == b.iter && a.item.stored_node() == b.item.stored_node();
}

void SortUniqueNodeRows(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), RowNodeLess);
  rows->erase(std::unique(rows->begin(), rows->end(), RowNodeEqual),
              rows->end());
}

so::StandoffOp AxisToOp(Axis axis) {
  switch (axis) {
    case Axis::kSelectNarrow: return so::StandoffOp::kSelectNarrow;
    case Axis::kSelectWide: return so::StandoffOp::kSelectWide;
    case Axis::kRejectNarrow: return so::StandoffOp::kRejectNarrow;
    default: return so::StandoffOp::kRejectWide;
  }
}

storage::RegionStats ContextStats(const std::vector<so::IterRegion>& ctx) {
  std::vector<int64_t> starts, ends;
  starts.reserve(ctx.size());
  ends.reserve(ctx.size());
  for (const so::IterRegion& r : ctx) {
    starts.push_back(r.start);
    ends.push_back(r.end);
  }
  return storage::RegionStats::Compute(starts.data(), ends.data(),
                                       starts.size());
}

/// Row ranges per iteration: offsets[iter] .. offsets[iter+1].
std::vector<size_t> IterOffsets(const std::vector<Row>& rows,
                                uint32_t iter_count) {
  std::vector<size_t> offsets(iter_count + 1, 0);
  for (const Row& row : rows) ++offsets[row.iter + 1];
  for (uint32_t i = 0; i < iter_count; ++i) offsets[i + 1] += offsets[i];
  return offsets;
}

/// The per-iteration execution pattern shared by the basic and UDF
/// modes: split `context` into consecutive same-iteration runs and
/// invoke `join_one(iter, iter_context, out)` per run, serially and in
/// iteration order. `join_one` appends its run's matches to `out`.
Status RunIterationGroups(
    const std::vector<so::IterRegion>& context,
    const std::function<Status(uint32_t, const std::vector<so::AreaAnnotation>&,
                               std::vector<so::IterMatch>*)>& join_one,
    std::vector<so::IterMatch>* matches) {
  std::vector<so::AreaAnnotation> iter_context;
  size_t begin = 0;
  while (begin < context.size()) {
    iter_context.clear();
    size_t end = begin;
    for (; end < context.size() && context[end].iter == context[begin].iter;
         ++end) {
      iter_context.push_back(so::AreaAnnotation{
          0, {so::Region{context[end].start, context[end].end}}});
    }
    STANDOFF_RETURN_IF_ERROR(
        join_one(context[begin].iter, iter_context, matches));
    begin = end;
  }
  return Status::OK();
}

}  // namespace

Status Engine::CheckDeadline() const {
  if (deadline_seconds_ > 0 &&
      deadline_timer_.ElapsedSeconds() > deadline_seconds_) {
    return Status::TimedOut("query exceeded " +
                            std::to_string(deadline_seconds_) + "s budget");
  }
  return Status::OK();
}

StatusOr<algebra::QueryResult> Engine::Evaluate(
    const std::string& query_text) {
  StatusOr<Query> query = ParseQuery(query_text);
  if (!query.ok()) return query.status();
  if (store_->document_count() == 0) {
    return Status::FailedPrecondition("document store is empty");
  }
  standoff_config_.type = query->prolog.standoff_type.empty()
                              ? "auto"
                              : query->prolog.standoff_type;
  deadline_timer_.Reset();
  deadline_seconds_ = options_.timeout_seconds;

  Env env;
  Lifted result;
  STANDOFF_RETURN_IF_ERROR(
      EvalExpr(*query->body, env, /*iter_count=*/1, &result));
  algebra::QueryResult out;
  out.items.reserve(result.rows.size());
  for (Row& row : result.rows) out.items.push_back(std::move(row.item));
  return out;
}

Status Engine::EvalExpr(const Expr& expr, const Env& env, uint32_t iter_count,
                        Lifted* out) {
  STANDOFF_RETURN_IF_ERROR(CheckDeadline());
  switch (expr.kind) {
    case Expr::Kind::kPath:
      return EvalPath(expr, env, iter_count, out);
    case Expr::Kind::kFor:
      return EvalFor(expr, env, iter_count, out);
    case Expr::Kind::kCount:
      return EvalCount(expr, env, iter_count, out);
    case Expr::Kind::kAdd:
      return EvalAdd(expr, env, iter_count, out);
    case Expr::Kind::kStringLit: {
      out->iter_count = iter_count;
      out->rows.clear();
      for (uint32_t i = 0; i < iter_count; ++i) {
        out->rows.push_back(Row{i, Item::String(expr.string_value)});
      }
      return Status::OK();
    }
    case Expr::Kind::kNumberLit: {
      out->iter_count = iter_count;
      out->rows.clear();
      for (uint32_t i = 0; i < iter_count; ++i) {
        out->rows.push_back(Row{i, Item::Double(expr.number_value)});
      }
      return Status::OK();
    }
    case Expr::Kind::kAttrEquals:
    case Expr::Kind::kAttrExists:
      return Status::Internal("attribute test outside a predicate");
  }
  return Status::Internal("unhandled expression kind");
}

Status Engine::EvalPath(const Expr& expr, const Env& env, uint32_t iter_count,
                        Lifted* out) {
  out->iter_count = iter_count;
  out->rows.clear();
  if (!expr.start_var.empty()) {
    auto it = env.vars.find(expr.start_var);
    if (it == env.vars.end()) {
      return Status::Invalid("unbound variable $" + expr.start_var);
    }
    *out = it->second;
  } else {
    if (!expr.absolute) {
      return Status::Unimplemented(
          "relative paths must start at a variable ($var/...)");
    }
    // Absolute path: the default document's document node, live in every
    // iteration of the current space.
    out->rows.reserve(iter_count);
    for (uint32_t i = 0; i < iter_count; ++i) {
      out->rows.push_back(Row{i, Item::Node(NodeId{0, 0})});
    }
  }
  for (const Step& step : expr.steps) {
    STANDOFF_RETURN_IF_ERROR(ApplyStep(step, out));
  }
  return Status::OK();
}

Status Engine::ApplyStep(const Step& step, Lifted* rows) {
  STANDOFF_RETURN_IF_ERROR(CheckDeadline());
  for (const Row& row : rows->rows) {
    if (!row.item.is_node()) {
      return Status::Invalid("path step applied to a non-node item");
    }
  }
  if (IsStandoffAxis(step.axis)) {
    STANDOFF_RETURN_IF_ERROR(ApplyStandoffStep(step, rows));
  } else {
    STANDOFF_RETURN_IF_ERROR(ApplyNavigationStep(step, rows));
  }
  for (const ExprPtr& pred : step.predicates) {
    STANDOFF_RETURN_IF_ERROR(ApplyPredicate(*pred, rows));
  }
  return Status::OK();
}

bool Engine::NameMatches(const Step& step, storage::DocId doc,
                         storage::Pre pre) const {
  const storage::NodeTable& table = store_->table(doc);
  if (!table.IsElement(pre)) return false;
  if (step.any_name) return true;
  const storage::NameId name = store_->names().Lookup(step.name);
  return name != storage::kInvalidName && table.name(pre) == name;
}

Status Engine::ApplyNavigationStep(const Step& step, Lifted* rows) {
  const storage::NameId name =
      step.any_name ? storage::kInvalidName : store_->names().Lookup(step.name);
  if (!step.any_name && name == storage::kInvalidName) {
    rows->rows.clear();  // name never occurs in any document
    return Status::OK();
  }
  std::vector<Row> result;
  size_t processed = 0;
  for (const Row& row : rows->rows) {
    if ((++processed & 1023u) == 0) {
      STANDOFF_RETURN_IF_ERROR(CheckDeadline());
    }
    const NodeId node = row.item.stored_node();
    const storage::NodeTable& table = store_->table(node.doc);
    switch (step.axis) {
      case Axis::kSelf: {
        const bool keep = step.any_name ? table.IsElement(node.pre)
                                        : (table.IsElement(node.pre) &&
                                           table.name(node.pre) == name);
        if (keep) result.push_back(row);
        break;
      }
      case Axis::kChild: {
        const storage::Pre end =
            node.pre + table.subtree_size(node.pre) + 1;
        for (storage::Pre child = node.pre + 1; child < end;
             child += table.subtree_size(child) + 1) {
          if (table.IsElement(child) &&
              (step.any_name || table.name(child) == name)) {
            result.push_back(Row{row.iter, Item::Node(NodeId{node.doc, child})});
          }
        }
        break;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        const storage::Pre lo =
            step.axis == Axis::kDescendant ? node.pre + 1 : node.pre;
        const storage::Pre hi = node.pre + table.subtree_size(node.pre);
        if (step.any_name) {
          for (storage::Pre pre = lo; pre <= hi; ++pre) {
            if (table.IsElement(pre)) {
              result.push_back(Row{row.iter, Item::Node(NodeId{node.doc, pre})});
            }
          }
        } else {
          // Name-index range scan: the loop-lifted descendant step the
          // staircase comparison runs against.
          const storage::Span<storage::Pre> pres =
              store_->document(node.doc).element_index.Lookup(name);
          auto it = std::lower_bound(pres.begin(), pres.end(), lo);
          for (; it != pres.end() && *it <= hi; ++it) {
            result.push_back(Row{row.iter, Item::Node(NodeId{node.doc, *it})});
          }
        }
        break;
      }
      default:
        return Status::Internal("standoff axis in navigation step");
    }
  }
  SortUniqueNodeRows(&result);
  rows->rows = std::move(result);
  return Status::OK();
}

Status Engine::ApplyPredicate(const Expr& pred, Lifted* rows) {
  if (pred.kind != Expr::Kind::kAttrEquals &&
      pred.kind != Expr::Kind::kAttrExists) {
    return Status::Unimplemented("unsupported predicate form");
  }
  const storage::NameId attr = store_->names().Lookup(pred.attr_name);
  std::vector<Row> kept;
  for (const Row& row : rows->rows) {
    if (!row.item.is_node()) {
      return Status::Invalid("attribute predicate on a non-node item");
    }
    if (attr == storage::kInvalidName) continue;
    const NodeId node = row.item.stored_node();
    auto [found, value] = store_->table(node.doc).FindAttribute(node.pre, attr);
    if (!found) continue;
    if (pred.kind == Expr::Kind::kAttrEquals && value != pred.string_value) {
      continue;
    }
    kept.push_back(row);
  }
  rows->rows = std::move(kept);
  return Status::OK();
}

so::ChainExecOptions Engine::DeriveChainExec() {
  so::ChainExecOptions exec;
  exec.join = options_.join;
  exec.join.arena = &arena_;
  exec.checkpoint = &checkpoint_;
  return exec;
}

StatusOr<const so::RegionIndex*> Engine::GetIndex(storage::DocId doc) {
  return index_cache_.Get(*store_, doc, standoff_config_);
}

Engine::KeyState& Engine::StateOf(storage::DocId doc) {
  return key_state_[std::make_pair(doc,
                                   so::ConfigFingerprint(standoff_config_))];
}

StatusOr<const Engine::CandidateSet*> Engine::GetCandidates(
    storage::DocId doc, const std::string& name) {
  std::map<std::string, CandidateSet>& candidates = StateOf(doc).candidates;
  auto it = candidates.find(name);
  if (it != candidates.end()) return &it->second;
  StatusOr<const so::RegionIndex*> index = GetIndex(doc);
  if (!index.ok()) return index.status();
  const storage::Span<storage::Pre> name_pres =
      store_->document(doc).element_index.Lookup(store_->names().Lookup(name));
  CandidateSet set;
  set.ids.reserve(name_pres.size());
  std::set_intersection((*index)->annotated_ids().begin(),
                        (*index)->annotated_ids().end(), name_pres.begin(),
                        name_pres.end(), std::back_inserter(set.ids));
  set.entries = (*index)->IntersectColumns(set.ids);
  set.stats = storage::RegionStats::Compute(set.entries.start().data(),
                                            set.entries.end().data(),
                                            set.entries.size());
  return &candidates.emplace(name, std::move(set)).first->second;
}

const storage::RegionStats* Engine::GetIndexStats(
    storage::DocId doc, const so::RegionIndex& index) {
  std::optional<storage::RegionStats>& stats = StateOf(doc).index_stats;
  if (!stats) {
    const so::RegionColumns cols = index.columns();
    stats = storage::RegionStats::Compute(cols.start, cols.end, cols.size);
  }
  return &*stats;
}

StatusOr<so::ChainLayer> Engine::GetChainLayer(storage::DocId doc,
                                               const ChainStep& step,
                                               so::ChainEdge* edge) {
  StatusOr<const so::RegionIndex*> index = GetIndex(doc);
  if (!index.ok()) return index.status();
  so::ChainLayer layer;
  layer.index = *index;
  const storage::NameId name =
      step.any_name ? storage::kInvalidName : store_->names().Lookup(step.name);
  if (!step.any_name && name == storage::kInvalidName) {
    // Unknown name: an empty layer (no candidates, empty universe).
    layer.ids_set = true;
    return layer;
  }
  const storage::Span<storage::Pre> annotated_ids = (*index)->annotated_ids();
  const size_t annotated = annotated_ids.size();
  // Pushdown decision: a name whose ANNOTATED elements cover most of
  // the index buys nothing from an intersected copy — join the whole
  // index and name-filter the matches instead. Selective names get the
  // cached (columns ∩ name) candidate set. The candidate count is the
  // |annotated ∩ name| intersection (counted allocation-free; the raw
  // element count over-states it when most same-named elements carry
  // no regions).
  size_t candidate_count = annotated;
  if (!step.any_name) {
    const storage::Span<storage::Pre> name_pres =
        store_->document(doc).element_index.Lookup(name);
    if (name_pres.size() * 2 < annotated) {
      candidate_count = name_pres.size();  // already provably sparse
    } else {
      candidate_count = 0;
      for (size_t a = 0, p = 0; a < annotated && p < name_pres.size();) {
        if (annotated_ids[a] < name_pres[p]) {
          ++a;
        } else if (name_pres[p] < annotated_ids[a]) {
          ++p;
        } else {
          ++candidate_count;
          ++a;
          ++p;
        }
      }
    }
  }
  if (step.any_name || candidate_count * 2 >= annotated) {
    layer.columns = (*index)->columns();
    layer.ids = (*index)->annotated_ids();
    layer.ids_set = true;
    layer.stats = *GetIndexStats(doc, **index);
    if (!step.any_name) {
      const storage::NodeTable* table = &store_->table(doc);
      edge->post = [table, name](std::vector<so::IterMatch>* matches) {
        matches->erase(
            std::remove_if(matches->begin(), matches->end(),
                           [table, name](const so::IterMatch& m) {
                             return !table->IsElement(m.pre) ||
                                    table->name(m.pre) != name;
                           }),
            matches->end());
        return Status::OK();
      };
    }
    return layer;
  }
  StatusOr<const CandidateSet*> candidates = GetCandidates(doc, step.name);
  if (!candidates.ok()) return candidates.status();
  layer.columns = (*candidates)->entries.View();
  layer.ids = (*candidates)->ids;
  layer.ids_set = true;
  layer.stats = (*candidates)->stats;
  return layer;
}

StatusOr<ChainResult> Engine::EvaluateChain(const ChainQuery& query) {
  if (store_->document_count() == 0) {
    return Status::FailedPrecondition("document store is empty");
  }
  if (query.doc >= store_->document_count()) {
    return Status::Invalid("no such document: " + std::to_string(query.doc));
  }
  if (query.steps.empty()) {
    return Status::Invalid("chain query needs at least one step");
  }
  standoff_config_.type =
      query.standoff_type.empty() ? "auto" : query.standoff_type;
  deadline_timer_.Reset();
  deadline_seconds_ = options_.timeout_seconds;

  StatusOr<const so::RegionIndex*> index = GetIndex(query.doc);
  if (!index.ok()) return index.status();

  ChainResult result;
  so::ChainSpec spec;
  // The context rows are exactly the regions of the context candidate
  // set, so its cached stats are the context stats — no recompute.
  if (query.context_any) {
    const storage::Span<storage::Pre> ids = (*index)->annotated_ids();
    result.context_ids.assign(ids.begin(), ids.end());
    spec.context_stats = *GetIndexStats(query.doc, **index);
  } else {
    StatusOr<const CandidateSet*> context =
        GetCandidates(query.doc, query.context_name);
    if (!context.ok()) return context.status();
    result.context_ids = (*context)->ids;
    spec.context_stats = (*context)->stats;
  }

  spec.iter_count = static_cast<uint32_t>(result.context_ids.size());
  std::vector<so::IterMatch> context_nodes(spec.iter_count);
  for (uint32_t i = 0; i < spec.iter_count; ++i) {
    context_nodes[i] = so::IterMatch{i, result.context_ids[i]};
  }
  so::MatchesToContext(context_nodes, **index, &spec.context);
  for (const ChainStep& step : query.steps) {
    if (!IsStandoffAxis(step.axis)) {
      return Status::Invalid("chain steps must use StandOff axes");
    }
    so::ChainEdge edge;
    edge.op = AxisToOp(step.axis);
    StatusOr<so::ChainLayer> layer = GetChainLayer(query.doc, step, &edge);
    if (!layer.ok()) return layer.status();
    edge.layer = *layer;
    spec.edges.push_back(std::move(edge));
  }

  result.plan = so::PlanChain(spec, options_.plan_mode);
  const so::ChainExecOptions exec = DeriveChainExec();
  if (options_.share_subplans) {
    // Canonical sub-plan keys: one per predicate prefix. The '\x1f'
    // separator cannot occur in an XML name and '*' is not a valid
    // name, so the encoding is injective — two different prefixes can
    // never produce the same key.
    std::vector<std::string> keys(spec.edges.size());
    std::string prefix = std::to_string(query.doc);
    prefix += '\x1f';
    prefix += standoff_config_.type;
    prefix += '\x1f';
    prefix += query.context_any ? "*" : query.context_name;
    for (size_t k = 0; k < query.steps.size(); ++k) {
      const ChainStep& step = query.steps[k];
      prefix += '\x1f';
      prefix += so::StandoffOpName(AxisToOp(step.axis));
      prefix += ':';
      prefix += step.any_name ? "*" : step.name;
      keys[k] = prefix;
    }
    STANDOFF_RETURN_IF_ERROR(
        EvaluateChainShared(query, spec, **index, keys, exec, &result));
    return result;
  }
  STANDOFF_RETURN_IF_ERROR(so::ExecuteChain(spec, result.plan, exec,
                                            &result.matches, &result.stats));
  return result;
}

so::SubPlanMemo::Reads Engine::PrefixReads(const ChainQuery& query,
                                           size_t last) const {
  so::SubPlanMemo::Reads reads;
  reads.doc = query.doc;
  reads.fingerprint = so::ConfigFingerprint(standoff_config_);
  const auto read = [&](bool any_name, const std::string& name) {
    if (any_name) {
      reads.all_names = true;
    } else {
      reads.names.push_back(store_->names().Lookup(name));
    }
  };
  read(query.context_any, query.context_name);
  for (size_t k = 0; k <= last; ++k) {
    read(query.steps[k].any_name, query.steps[k].name);
  }
  return reads;
}

Status Engine::EvaluateChainShared(const ChainQuery& query,
                                   const so::ChainSpec& spec,
                                   const so::RegionIndex& index,
                                   const std::vector<std::string>& keys,
                                   const so::ChainExecOptions& exec,
                                   ChainResult* result) {
  so::SubPlanMemo* memo = &subplan_memo_;
  const size_t hits0 = memo->hits();
  const size_t misses0 = memo->misses();
  const size_t evictions0 = memo->evictions();
  const size_t n = spec.edges.size();

  // Longest cached prefix: probe the full chain first, then shrink.
  size_t p = n;
  std::shared_ptr<const so::SubPlanMemo::Entry> cached;
  for (; p > 0; --p) {
    cached = memo->Lookup(keys[p - 1]);
    if (cached) break;
  }

  so::ChainStats total;
  std::vector<so::IterMatch> matches;
  if (cached) matches = cached->matches;  // splice the shared result

  if (p < n) {
    // Execute the remaining suffix. Its context is the cached prefix's
    // matches mapped back to rows (or the original context when
    // nothing was cached), and its stats are computed over those REAL
    // rows — the suffix is planned against materialized cardinalities,
    // not the top-of-chain estimates.
    so::ChainSpec suffix;
    suffix.iter_count = spec.iter_count;
    if (p == 0) {
      suffix.context = spec.context;
      suffix.context_stats = spec.context_stats;
    } else {
      so::MatchesToContext(matches, index, &suffix.context);
      suffix.context_stats = ContextStats(suffix.context);
    }
    for (size_t e = p; e < n; ++e) suffix.edges.push_back(spec.edges[e]);
    const so::ChainPlan suffix_plan =
        so::PlanChain(suffix, options_.plan_mode);

    if (suffix_plan.order == so::ChainOrder::kBottomUpLast) {
      // Bottom-up never materializes the intermediate prefixes, so
      // only the full chain's result can be memoized.
      so::ChainStats stats;
      STANDOFF_RETURN_IF_ERROR(
          so::ExecuteChain(suffix, suffix_plan, exec, &matches, &stats));
      total.joins_run += stats.joins_run;
      total.context_rows_total += stats.context_rows_total;
      total.bottom_up_kept_rows += stats.bottom_up_kept_rows;
      total.bottom_up_dropped_rows += stats.bottom_up_dropped_rows;
      total.composed_matches += stats.composed_matches;
      auto entry = std::make_shared<so::SubPlanMemo::Entry>();
      entry->matches = matches;
      entry->reads = PrefixReads(query, n - 1);
      memo->Insert(keys[n - 1], std::move(entry));
    } else {
      // Top-down: run edge by edge — exactly what ExecuteChain's
      // top-down path does internally, so results are byte-identical —
      // and memoize every newly evaluated prefix along the way.
      for (size_t e = p; e < n; ++e) {
        so::ChainSpec one;
        one.iter_count = spec.iter_count;
        one.context_stats = suffix.context_stats;
        if (e == p) {
          one.context = std::move(suffix.context);
        } else {
          so::MatchesToContext(matches, index, &one.context);
          one.context_stats = ContextStats(one.context);
        }
        one.edges.push_back(spec.edges[e]);
        const so::ChainPlan one_plan = so::PlanChain(one, so::PlanMode::kTopDown);
        so::ChainStats stats;
        STANDOFF_RETURN_IF_ERROR(
            so::ExecuteChain(one, one_plan, exec, &matches, &stats));
        total.joins_run += stats.joins_run;
        total.context_rows_total += stats.context_rows_total;
        auto entry = std::make_shared<so::SubPlanMemo::Entry>();
        entry->matches = matches;
        entry->reads = PrefixReads(query, e);
        memo->Insert(keys[e], std::move(entry));
      }
    }
  }

  result->matches = std::move(matches);
  total.memo_hits = memo->hits() - hits0;
  total.memo_misses = memo->misses() - misses0;
  total.memo_evictions = memo->evictions() - evictions0;
  result->stats = total;
  return Status::OK();
}

namespace {

/// Appends the names of the element ids `run` (may be null) inserts or
/// tombstones. A tombstone may name a non-element (a delete is only
/// checked for its document); regions annotate elements, so it hides
/// nothing and adds no name.
void AddRunNames(const storage::DeltaRun* run, const storage::NodeTable& table,
                 std::vector<storage::NameId>* names) {
  if (run == nullptr) return;
  const auto add = [&](storage::Pre id) {
    if (id < table.size() && table.IsElement(id)) {
      names->push_back(table.name(id));
    }
  };
  for (const storage::DeltaInsert& insert : run->inserts) add(insert.id);
  for (const storage::DeltaTombstone& tomb : run->tombstones) add(tomb.id);
}

}  // namespace

void Engine::Rebase(const storage::StoreView* next) {
  // Per (document, config) key, on first ask: null when the key's run is
  // the same object in both views, so nothing under it changed; else
  // the sorted names of every id either run names. A region set
  // restricted to any other name is the base's in both views.
  std::map<std::pair<storage::DocId, std::string>,
           std::optional<std::vector<storage::NameId>>>
      dirty;
  const auto dirty_names = [&](storage::DocId doc, const std::string& fp)
      -> const std::vector<storage::NameId>* {
    auto [it, fresh] = dirty.try_emplace(std::make_pair(doc, fp));
    if (fresh) {
      const std::shared_ptr<const storage::DeltaRun> before =
          store_->delta_run(doc, fp);
      const std::shared_ptr<const storage::DeltaRun> after =
          next->delta_run(doc, fp);
      if (before != after) {
        std::vector<storage::NameId>& names = it->second.emplace();
        AddRunNames(before.get(), next->table(doc), &names);
        AddRunNames(after.get(), next->table(doc), &names);
        std::sort(names.begin(), names.end());
        names.erase(std::unique(names.begin(), names.end()), names.end());
      }
    }
    return it->second ? &*it->second : nullptr;
  };
  const auto reads_dirty = [](const std::vector<storage::NameId>& names,
                              storage::NameId name) {
    return std::binary_search(names.begin(), names.end(), name);
  };

  for (auto& [key, state] : key_state_) {
    const std::vector<storage::NameId>* names =
        dirty_names(key.first, key.second);
    if (names == nullptr) continue;
    state.index_stats.reset();  // whole-index stats read every name
    for (auto it = state.candidates.begin(); it != state.candidates.end();) {
      if (reads_dirty(*names, next->names().Lookup(it->first))) {
        it = state.candidates.erase(it);
      } else {
        ++it;
      }
    }
  }
  subplan_memo_.EraseIf([&](const so::SubPlanMemo::Entry& entry) {
    const so::SubPlanMemo::Reads& reads = entry.reads;
    const std::vector<storage::NameId>* names =
        dirty_names(reads.doc, reads.fingerprint);
    return names != nullptr &&
           (reads.all_names ||
            std::any_of(reads.names.begin(), reads.names.end(),
                        [&](storage::NameId name) {
                          return reads_dirty(*names, name);
                        }));
  });
  store_ = next;
}

Status Engine::ApplyStandoffStep(const Step& step, Lifted* rows) {
  const so::StandoffOp op = AxisToOp(step.axis);
  // Partition context rows by document (stable: preserves iter order).
  std::vector<Row> result;
  std::vector<storage::DocId> docs;
  for (const Row& row : rows->rows) {
    const storage::DocId doc = row.item.stored_node().doc;
    if (std::find(docs.begin(), docs.end(), doc) == docs.end()) {
      docs.push_back(doc);
    }
  }
  std::vector<so::IterMatch> nodes;
  for (storage::DocId doc : docs) {
    StatusOr<const so::RegionIndex*> index = GetIndex(doc);
    if (!index.ok()) return index.status();
    // The step's context: every region of every context node, built
    // exactly as the chain executor builds the context between edges.
    nodes.clear();
    for (const Row& row : rows->rows) {
      const NodeId node = row.item.stored_node();
      if (node.doc == doc) nodes.push_back(so::IterMatch{row.iter, node.pre});
    }
    so::ChainSpec spec;
    spec.iter_count = rows->iter_count;
    so::MatchesToContext(nodes, **index, &spec.context);
    std::vector<so::IterMatch> matches;
    switch (mode_) {
      case StandoffMode::kLoopLifted: {
        // A one-edge chain: same layer choice, planner and deadline
        // checks as EvaluateChain.
        so::ChainEdge edge;
        edge.op = op;
        StatusOr<so::ChainLayer> layer = GetChainLayer(
            doc, ChainStep{step.axis, step.any_name, step.name}, &edge);
        if (!layer.ok()) return layer.status();
        edge.layer = *layer;
        spec.context_stats = ContextStats(spec.context);
        spec.edges.push_back(std::move(edge));
        STANDOFF_RETURN_IF_ERROR(
            so::ExecuteChain(spec, so::PlanChain(spec, options_.plan_mode),
                             DeriveChainExec(), &matches));
        break;
      }
      case StandoffMode::kBasicMergeJoin:
        STANDOFF_RETURN_IF_ERROR(
            StandoffBasicPerIteration(op, doc, spec.context, step, &matches));
        break;
      case StandoffMode::kUdfNoCandidates:
        STANDOFF_RETURN_IF_ERROR(StandoffUdfPerIteration(
            op, doc, spec.context, step, /*with_candidates=*/false,
            &matches));
        break;
      case StandoffMode::kUdfCandidates:
        STANDOFF_RETURN_IF_ERROR(StandoffUdfPerIteration(
            op, doc, spec.context, step, /*with_candidates=*/true,
            &matches));
        break;
    }
    for (const so::IterMatch& m : matches) {
      result.push_back(Row{m.iter, Item::Node(NodeId{doc, m.pre})});
    }
  }
  if (docs.size() > 1) SortUniqueNodeRows(&result);
  rows->rows = std::move(result);
  return Status::OK();
}

Status Engine::StandoffBasicPerIteration(
    so::StandoffOp op, storage::DocId doc,
    const std::vector<so::IterRegion>& context, const Step& step,
    std::vector<so::IterMatch>* matches) {
  StatusOr<const so::RegionIndex*> index = GetIndex(doc);
  if (!index.ok()) return index.status();
  // One basic merge-join call per loop iteration, each re-scanning the
  // full region index; the name test filters afterwards (no pushdown).
  so::JoinOptions join = options_.join;
  join.trace = nullptr;  // per-iteration calls have no trace contract
  join.stats = nullptr;
  join.arena = &arena_;
  return RunIterationGroups(
      context,
      [&](uint32_t iter, const std::vector<so::AreaAnnotation>& iter_context,
          std::vector<so::IterMatch>* out) -> Status {
        STANDOFF_RETURN_IF_ERROR(CheckDeadline());
        std::vector<storage::Pre> pres;
        STANDOFF_RETURN_IF_ERROR(so::BasicStandoffJoinColumns(
            op, iter_context, (*index)->columns(),
            (*index)->annotated_ids(), &pres, join));
        for (storage::Pre pre : pres) {
          if (NameMatches(step, doc, pre)) {
            out->push_back(so::IterMatch{iter, pre});
          }
        }
        return Status::OK();
      },
      matches);
}

Status Engine::StandoffUdfPerIteration(
    so::StandoffOp op, storage::DocId doc,
    const std::vector<so::IterRegion>& context, const Step& step,
    bool with_candidates, std::vector<so::IterMatch>* matches) {
  const storage::NodeTable& table = store_->table(doc);
  const so::ResolvedConfig config =
      so::Resolve(standoff_config_, store_->names());
  const storage::NameId name = store_->names().Lookup(step.name);
  storage::Span<storage::Pre> candidate_pres;
  std::vector<storage::Pre> all_elements;
  if (with_candidates && !step.any_name) {
    candidate_pres = store_->document(doc).element_index.Lookup(name);
  } else {
    all_elements.reserve(table.size());
    for (storage::Pre pre = 0; pre < table.size(); ++pre) {
      if (table.IsElement(pre)) all_elements.push_back(pre);
    }
    candidate_pres = all_elements;
  }

  return RunIterationGroups(
      context,
      [&](uint32_t iter, const std::vector<so::AreaAnnotation>& iter_context,
          std::vector<so::IterMatch>* out) -> Status {
        STANDOFF_RETURN_IF_ERROR(CheckDeadline());
        // The XQuery-function formulation re-derives every candidate
        // region from its attribute strings on each invocation —
        // nothing is indexed or reused across iterations.
        std::vector<so::AreaAnnotation> candidates;
        candidates.reserve(candidate_pres.size());
        for (storage::Pre pre : candidate_pres) {
          if (config.start_attr == storage::kInvalidName ||
              config.end_attr == storage::kInvalidName) {
            break;
          }
          auto [has_start, start_text] =
              table.FindAttribute(pre, config.start_attr);
          if (!has_start) continue;
          auto [has_end, end_text] = table.FindAttribute(pre, config.end_attr);
          if (!has_end) continue;
          int64_t rs, re;
          if (!so::ParseRegionValue(start_text, &rs) ||
              !so::ParseRegionValue(end_text, &re)) {
            continue;
          }
          candidates.push_back(so::AreaAnnotation{pre, {so::Region{rs, re}}});
        }
        std::vector<storage::Pre> pres;
        so::NaiveStandoffJoin(op, iter_context, candidates, &pres);
        for (storage::Pre pre : pres) {
          if (NameMatches(step, doc, pre)) {
            out->push_back(so::IterMatch{iter, pre});
          }
        }
        return Status::OK();
      },
      matches);
}

Status Engine::EvalFor(const Expr& expr, const Env& env, uint32_t iter_count,
                       Lifted* out) {
  Lifted bindings;
  STANDOFF_RETURN_IF_ERROR(EvalExpr(*expr.in_expr, env, iter_count, &bindings));
  const uint32_t inner_count = static_cast<uint32_t>(bindings.rows.size());
  // Each binding row becomes one iteration of the inner space; remap the
  // visible environment into it (the loop-lifting "map" relation).
  std::vector<uint32_t> outer_of(inner_count);
  for (uint32_t k = 0; k < inner_count; ++k) {
    outer_of[k] = bindings.rows[k].iter;
  }
  Env inner_env;
  for (const auto& [name, value] : env.vars) {
    const std::vector<size_t> offsets = IterOffsets(value.rows, iter_count);
    Lifted remapped;
    remapped.iter_count = inner_count;
    for (uint32_t k = 0; k < inner_count; ++k) {
      for (size_t r = offsets[outer_of[k]]; r < offsets[outer_of[k] + 1];
           ++r) {
        remapped.rows.push_back(Row{k, value.rows[r].item});
      }
    }
    inner_env.vars.emplace(name, std::move(remapped));
  }
  {
    Lifted var;
    var.iter_count = inner_count;
    var.rows.reserve(inner_count);
    for (uint32_t k = 0; k < inner_count; ++k) {
      var.rows.push_back(Row{k, bindings.rows[k].item});
    }
    inner_env.vars[expr.var] = std::move(var);
  }

  Lifted body;
  STANDOFF_RETURN_IF_ERROR(
      EvalExpr(*expr.ret_expr, inner_env, inner_count, &body));

  out->iter_count = iter_count;
  out->rows.clear();
  out->rows.reserve(body.rows.size());
  // Body rows are sorted by inner iteration; outer_of is non-decreasing,
  // so the mapped rows stay sorted by outer iteration.
  for (const Row& row : body.rows) {
    out->rows.push_back(Row{outer_of[row.iter], row.item});
  }
  return Status::OK();
}

Status Engine::EvalCount(const Expr& expr, const Env& env,
                         uint32_t iter_count, Lifted* out) {
  Lifted arg;
  STANDOFF_RETURN_IF_ERROR(EvalExpr(*expr.lhs, env, iter_count, &arg));
  std::vector<int64_t> counts(iter_count, 0);
  for (const Row& row : arg.rows) ++counts[row.iter];
  out->iter_count = iter_count;
  out->rows.clear();
  out->rows.reserve(iter_count);
  for (uint32_t i = 0; i < iter_count; ++i) {
    out->rows.push_back(Row{i, Item::Int(counts[i])});
  }
  return Status::OK();
}

Status Engine::EvalAdd(const Expr& expr, const Env& env, uint32_t iter_count,
                       Lifted* out) {
  Lifted lhs, rhs;
  STANDOFF_RETURN_IF_ERROR(EvalExpr(*expr.lhs, env, iter_count, &lhs));
  STANDOFF_RETURN_IF_ERROR(EvalExpr(*expr.rhs, env, iter_count, &rhs));
  if (lhs.rows.size() != iter_count || rhs.rows.size() != iter_count) {
    return Status::Invalid("'+' requires exactly one value per iteration");
  }
  out->iter_count = iter_count;
  out->rows.clear();
  out->rows.reserve(iter_count);
  for (uint32_t i = 0; i < iter_count; ++i) {
    if (lhs.rows[i].iter != i || rhs.rows[i].iter != i) {
      return Status::Invalid("'+' requires exactly one value per iteration");
    }
    const Item& a = lhs.rows[i].item;
    const Item& b = rhs.rows[i].item;
    const auto numeric = [](const Item& item) {
      return item.kind() == Item::Kind::kInt ||
             item.kind() == Item::Kind::kDouble;
    };
    if (!numeric(a) || !numeric(b)) {
      return Status::Invalid("'+' requires numeric operands");
    }
    if (a.kind() == Item::Kind::kInt && b.kind() == Item::Kind::kInt) {
      out->rows.push_back(Row{i, Item::Int(a.int_value() + b.int_value())});
    } else {
      const double da = a.kind() == Item::Kind::kInt
                            ? static_cast<double>(a.int_value())
                            : a.double_value();
      const double db = b.kind() == Item::Kind::kInt
                            ? static_cast<double>(b.int_value())
                            : b.double_value();
      out->rows.push_back(Row{i, Item::Double(da + db)});
    }
  }
  return Status::OK();
}

}  // namespace xquery
}  // namespace standoff
