#include "xquery/engine.h"

#include <algorithm>
#include <optional>

#include "storage/delta.h"
#include "xquery/parser.h"

namespace standoff {
namespace xquery {

using algebra::AtomicRow;
using algebra::Item;
using algebra::Lifted;

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

/// Document order within each iteration, duplicates dropped.
void SortUniqueNodes(std::vector<so::IterMatch>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const so::IterMatch& a, const so::IterMatch& b) {
              return a.iter != b.iter ? a.iter < b.iter : a.pre < b.pre;
            });
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

so::StandoffOp AxisToOp(Axis axis) {
  switch (axis) {
    case Axis::kSelectNarrow: return so::StandoffOp::kSelectNarrow;
    case Axis::kSelectWide: return so::StandoffOp::kSelectWide;
    case Axis::kRejectNarrow: return so::StandoffOp::kRejectNarrow;
    default: return so::StandoffOp::kRejectWide;
  }
}

/// The loop-lifting "map" relation: for each inner iteration k in
/// order, the rows of outer iteration outer_of[k], renumbered k. `rows`
/// (node or atomic) are sorted by iteration over `iter_count`.
template <typename RowT>
std::vector<RowT> MapIntoLoop(const std::vector<RowT>& rows,
                              uint32_t iter_count,
                              const std::vector<uint32_t>& outer_of) {
  std::vector<RowT> out;
  if (rows.empty()) return out;
  std::vector<size_t> offsets(iter_count + 1, 0);
  for (const RowT& row : rows) ++offsets[row.iter + 1];
  for (uint32_t i = 0; i < iter_count; ++i) offsets[i + 1] += offsets[i];
  for (uint32_t k = 0; k < outer_of.size(); ++k) {
    for (size_t r = offsets[outer_of[k]]; r < offsets[outer_of[k] + 1]; ++r) {
      out.push_back(rows[r]);
      out.back().iter = k;
    }
  }
  return out;
}

/// Appends value(i) to `out` in each iteration i of its space.
template <typename ValueFn>
void FillAtomics(const ValueFn& value, Lifted* out) {
  out->atomics.reserve(out->iter_count);
  for (uint32_t i = 0; i < out->iter_count; ++i) {
    out->atomics.push_back(AtomicRow{i, value(i)});
  }
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
  out.items.reserve(result.nodes.size() + result.atomics.size());
  for (const so::IterMatch& node : result.nodes) {
    out.items.push_back(Item::Node(algebra::NodeId{kQueryDoc, node.pre}));
  }
  for (AtomicRow& row : result.atomics) {
    out.items.push_back(std::move(row.item));
  }
  return out;
}

Status Engine::EvalExpr(const Expr& expr, const Env& env, uint32_t iter_count,
                        Lifted* out) {
  STANDOFF_RETURN_IF_ERROR(CheckDeadline());
  out->nodes.clear();
  out->atomics.clear();
  out->iter_count = iter_count;
  switch (expr.kind) {
    case Expr::Kind::kPath:
      return EvalPath(expr, env, iter_count, out);
    case Expr::Kind::kFor:
      return EvalFor(expr, env, iter_count, out);
    case Expr::Kind::kCount:
      return EvalCount(expr, env, iter_count, out);
    case Expr::Kind::kAdd:
      return EvalAdd(expr, env, iter_count, out);
    case Expr::Kind::kStringLit:
      FillAtomics([&](uint32_t) { return Item::String(expr.string_value); },
                  out);
      return Status::OK();
    case Expr::Kind::kNumberLit:
      FillAtomics([&](uint32_t) { return Item::Double(expr.number_value); },
                  out);
      return Status::OK();
    case Expr::Kind::kAttrEquals:
    case Expr::Kind::kAttrExists:
      return Status::Internal("attribute test outside a predicate");
  }
  return Status::Internal("unhandled expression kind");
}

Status Engine::EvalPath(const Expr& expr, const Env& env, uint32_t iter_count,
                        Lifted* out) {
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
    // Absolute path: the query document's document node (pre 0), live
    // in every iteration of the current space.
    out->nodes.reserve(iter_count);
    for (uint32_t i = 0; i < iter_count; ++i) {
      out->nodes.push_back(so::IterMatch{i, 0});
    }
  }
  for (const Step& step : expr.steps) {
    STANDOFF_RETURN_IF_ERROR(ApplyStep(step, out));
  }
  return Status::OK();
}

Status Engine::ApplyStep(const Step& step, Lifted* rows) {
  STANDOFF_RETURN_IF_ERROR(CheckDeadline());
  if (!rows->atomics.empty()) {
    return Status::Invalid("path step applied to a non-node item");
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

bool Engine::NameMatches(const Step& step, storage::Pre pre) const {
  const storage::NodeTable& table = store_->table(kQueryDoc);
  if (!table.IsElement(pre)) return false;
  if (step.any_name) return true;
  const storage::NameId name = store_->names().Lookup(step.name);
  return name != storage::kInvalidName && table.name(pre) == name;
}

Status Engine::ApplyNavigationStep(const Step& step, Lifted* rows) {
  const storage::NameId name =
      step.any_name ? storage::kInvalidName : store_->names().Lookup(step.name);
  if (!step.any_name && name == storage::kInvalidName) {
    rows->nodes.clear();  // name never occurs in any document
    return Status::OK();
  }
  const storage::NodeTable& table = store_->table(kQueryDoc);
  std::vector<so::IterMatch> result;
  size_t processed = 0;
  for (const so::IterMatch& node : rows->nodes) {
    if ((++processed & 1023u) == 0) {
      STANDOFF_RETURN_IF_ERROR(CheckDeadline());
    }
    switch (step.axis) {
      case Axis::kSelf: {
        const bool keep = step.any_name ? table.IsElement(node.pre)
                                        : (table.IsElement(node.pre) &&
                                           table.name(node.pre) == name);
        if (keep) result.push_back(node);
        break;
      }
      case Axis::kChild: {
        const storage::Pre end =
            node.pre + table.subtree_size(node.pre) + 1;
        for (storage::Pre child = node.pre + 1; child < end;
             child += table.subtree_size(child) + 1) {
          if (table.IsElement(child) &&
              (step.any_name || table.name(child) == name)) {
            result.push_back(so::IterMatch{node.iter, child});
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
              result.push_back(so::IterMatch{node.iter, pre});
            }
          }
        } else {
          // Name-index range scan: the loop-lifted descendant step the
          // staircase comparison runs against.
          const storage::Span<storage::Pre> pres =
              store_->document(kQueryDoc).element_index.Lookup(name);
          auto it = std::lower_bound(pres.begin(), pres.end(), lo);
          for (; it != pres.end() && *it <= hi; ++it) {
            result.push_back(so::IterMatch{node.iter, *it});
          }
        }
        break;
      }
      default:
        return Status::Internal("standoff axis in navigation step");
    }
  }
  SortUniqueNodes(&result);
  rows->nodes = std::move(result);
  return Status::OK();
}

Status Engine::ApplyPredicate(const Expr& pred, Lifted* rows) {
  if (pred.kind != Expr::Kind::kAttrEquals &&
      pred.kind != Expr::Kind::kAttrExists) {
    return Status::Unimplemented("unsupported predicate form");
  }
  const storage::NameId attr = store_->names().Lookup(pred.attr_name);
  const storage::NodeTable& table = store_->table(kQueryDoc);
  std::vector<so::IterMatch>& nodes = rows->nodes;
  nodes.erase(
      std::remove_if(nodes.begin(), nodes.end(),
                     [&](const so::IterMatch& node) {
                       if (attr == storage::kInvalidName) return true;
                       auto [found, value] = table.FindAttribute(node.pre, attr);
                       return !found || (pred.kind == Expr::Kind::kAttrEquals &&
                                         value != pred.string_value);
                     }),
      nodes.end());
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

Status Engine::AppendChainEdge(storage::DocId doc, const ChainStep& step,
                               so::ChainSpec* spec) {
  if (!IsStandoffAxis(step.axis)) {
    return Status::Invalid("chain steps must use StandOff axes");
  }
  StatusOr<const so::RegionIndex*> index = GetIndex(doc);
  if (!index.ok()) return index.status();
  so::ChainEdge& edge = spec->edges.emplace_back();
  edge.op = AxisToOp(step.axis);
  so::ChainLayer& layer = edge.layer;
  layer.index = *index;
  layer.ids_set = true;
  const storage::NameId name =
      step.any_name ? storage::kInvalidName : store_->names().Lookup(step.name);
  if (!step.any_name && name == storage::kInvalidName) {
    return Status::OK();  // unknown name: no candidates, empty universe
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
    layer.stats = *GetIndexStats(doc, **index);
    if (!step.any_name) {
      const storage::NodeTable* table = &store_->table(doc);
      edge.post = [table, name](std::vector<so::IterMatch>* matches) {
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
    return Status::OK();
  }
  StatusOr<const CandidateSet*> candidates = GetCandidates(doc, step.name);
  if (!candidates.ok()) return candidates.status();
  layer.columns = (*candidates)->entries.View();
  layer.ids = (*candidates)->ids;
  layer.stats = (*candidates)->stats;
  return Status::OK();
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
    STANDOFF_RETURN_IF_ERROR(AppendChainEdge(query.doc, step, &spec));
  }
  result.plan = so::PlanChain(spec, options_.plan_mode);

  // Sub-plan sharing: canonical keys, one per predicate prefix. The
  // '\x1f' separator cannot occur in an XML name and '*' is not a valid
  // name, so the encoding is injective — two different prefixes can
  // never produce the same key. The longest cached prefix's matches
  // replace its edges (the full chain is probed first).
  const size_t n = spec.edges.size();
  std::vector<std::string> keys;
  std::shared_ptr<const so::SubPlanMemo::Entry> cached;
  size_t p = 0;  // edges answered by `cached`
  const size_t hits0 = subplan_memo_.hits();
  const size_t misses0 = subplan_memo_.misses();
  const size_t evictions0 = subplan_memo_.evictions();
  if (options_.share_subplans) {
    std::string prefix = std::to_string(query.doc);
    prefix += '\x1f';
    prefix += standoff_config_.type;
    prefix += '\x1f';
    prefix += query.context_any ? "*" : query.context_name;
    for (const ChainStep& step : query.steps) {
      prefix += '\x1f';
      prefix += so::StandoffOpName(AxisToOp(step.axis));
      prefix += ':';
      prefix += step.any_name ? "*" : step.name;
      keys.push_back(prefix);
    }
    for (p = n; p > 0; --p) {
      cached = subplan_memo_.Lookup(keys[p - 1]);
      if (cached) break;
    }
  }

  if (p == n) {
    result.matches = cached->matches;
  } else {
    // The suffix after the cached prefix starts from the prefix's
    // matches mapped back to rows, planned against those real rows.
    so::ChainPlan plan = result.plan;
    if (p > 0) {
      so::MatchesToContext(cached->matches, **index, &spec.context);
      spec.context_stats = so::ContextStats(spec.context);
      spec.edges.erase(spec.edges.begin(), spec.edges.begin() + p);
      plan = so::PlanChain(spec, options_.plan_mode);
    }
    // Every prefix the executor materializes becomes a memo entry.
    const so::PrefixSink memoize =
        [&](size_t edge, const std::vector<so::IterMatch>& matches) {
          auto entry = std::make_shared<so::SubPlanMemo::Entry>();
          entry->matches = matches;
          entry->reads = PrefixReads(query, p + edge);
          subplan_memo_.Insert(keys[p + edge], std::move(entry));
          return Status::OK();
        };
    so::ChainExecOptions exec = DeriveChainExec();
    if (options_.share_subplans) exec.prefix_sink = &memoize;
    STANDOFF_RETURN_IF_ERROR(so::ExecuteChain(spec, plan, exec,
                                              &result.matches, &result.stats));
  }
  result.stats.memo_hits = subplan_memo_.hits() - hits0;
  result.stats.memo_misses = subplan_memo_.misses() - misses0;
  result.stats.memo_evictions = subplan_memo_.evictions() - evictions0;
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
  if (rows->nodes.empty()) return Status::OK();  // no context, no index
  StatusOr<const so::RegionIndex*> index = GetIndex(kQueryDoc);
  if (!index.ok()) return index.status();
  // The step's context: every region of every context node, built
  // exactly as the chain executor builds the context between edges.
  so::ChainSpec spec;
  spec.iter_count = rows->iter_count;
  so::MatchesToContext(rows->nodes, **index, &spec.context);
  const so::StandoffOp op = AxisToOp(step.axis);
  std::vector<so::IterMatch> matches;
  switch (mode_) {
    case StandoffMode::kLoopLifted: {
      // A one-edge chain: same layer choice, planner and deadline
      // checks as EvaluateChain.
      STANDOFF_RETURN_IF_ERROR(AppendChainEdge(
          kQueryDoc, ChainStep{step.axis, step.any_name, step.name}, &spec));
      spec.context_stats = so::ContextStats(spec.context);
      STANDOFF_RETURN_IF_ERROR(
          so::ExecuteChain(spec, so::PlanChain(spec, options_.plan_mode),
                           DeriveChainExec(), &matches));
      break;
    }
    case StandoffMode::kBasicMergeJoin:
      STANDOFF_RETURN_IF_ERROR(
          StandoffBasicPerIteration(op, spec.context, step, &matches));
      break;
    case StandoffMode::kUdfNoCandidates:
      STANDOFF_RETURN_IF_ERROR(StandoffUdfPerIteration(
          op, spec.context, step, /*with_candidates=*/false, &matches));
      break;
    case StandoffMode::kUdfCandidates:
      STANDOFF_RETURN_IF_ERROR(StandoffUdfPerIteration(
          op, spec.context, step, /*with_candidates=*/true, &matches));
      break;
  }
  rows->nodes = std::move(matches);
  return Status::OK();
}

Status Engine::StandoffBasicPerIteration(
    so::StandoffOp op, const std::vector<so::IterRegion>& context,
    const Step& step, std::vector<so::IterMatch>* matches) {
  StatusOr<const so::RegionIndex*> index = GetIndex(kQueryDoc);
  if (!index.ok()) return index.status();
  // One basic merge-join call per loop iteration, each re-scanning the
  // full region index; the name test filters afterwards (no pushdown).
  so::JoinOptions join = DeriveChainExec().join;
  join.trace = nullptr;  // per-iteration calls have no trace contract
  join.stats = nullptr;
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
          if (NameMatches(step, pre)) {
            out->push_back(so::IterMatch{iter, pre});
          }
        }
        return Status::OK();
      },
      matches);
}

Status Engine::StandoffUdfPerIteration(
    so::StandoffOp op, const std::vector<so::IterRegion>& context,
    const Step& step, bool with_candidates,
    std::vector<so::IterMatch>* matches) {
  const storage::NodeTable& table = store_->table(kQueryDoc);
  const so::ResolvedConfig config =
      so::Resolve(standoff_config_, store_->names());
  const storage::NameId name = store_->names().Lookup(step.name);
  storage::Span<storage::Pre> candidate_pres;
  std::vector<storage::Pre> all_elements;
  if (with_candidates && !step.any_name) {
    candidate_pres = store_->document(kQueryDoc).element_index.Lookup(name);
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
          if (NameMatches(step, pre)) {
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
  // Each binding row becomes one iteration k of the inner space, holding
  // that row alone as the loop variable; outer_of[k] is its outer
  // iteration, non-decreasing since bindings are sorted by iteration.
  std::vector<uint32_t> outer_of;
  const auto bind = [&](auto* binding_rows) {
    for (auto& row : *binding_rows) {
      outer_of.push_back(row.iter);
      row.iter = static_cast<uint32_t>(outer_of.size() - 1);
    }
  };
  bind(&bindings.nodes);
  bind(&bindings.atomics);
  const uint32_t inner_count = static_cast<uint32_t>(outer_of.size());
  Env inner_env;
  for (const auto& [name, value] : env.vars) {
    Lifted& remapped = inner_env.vars[name];
    remapped.iter_count = inner_count;
    remapped.nodes = MapIntoLoop(value.nodes, iter_count, outer_of);
    remapped.atomics = MapIntoLoop(value.atomics, iter_count, outer_of);
  }
  bindings.iter_count = inner_count;
  inner_env.vars[expr.var] = std::move(bindings);

  STANDOFF_RETURN_IF_ERROR(
      EvalExpr(*expr.ret_expr, inner_env, inner_count, out));
  // Body rows are sorted by inner iteration; outer_of is non-decreasing,
  // so the mapped rows stay sorted by outer iteration.
  const auto unbind = [&](auto* body_rows) {
    for (auto& row : *body_rows) row.iter = outer_of[row.iter];
  };
  unbind(&out->nodes);
  unbind(&out->atomics);
  out->iter_count = iter_count;
  return Status::OK();
}

Status Engine::EvalCount(const Expr& expr, const Env& env,
                         uint32_t iter_count, Lifted* out) {
  Lifted arg;
  STANDOFF_RETURN_IF_ERROR(EvalExpr(*expr.lhs, env, iter_count, &arg));
  std::vector<int64_t> counts(iter_count, 0);
  for (const so::IterMatch& row : arg.nodes) ++counts[row.iter];
  for (const AtomicRow& row : arg.atomics) ++counts[row.iter];
  FillAtomics([&](uint32_t i) { return Item::Int(counts[i]); }, out);
  return Status::OK();
}

Status Engine::EvalAdd(const Expr& expr, const Env& env, uint32_t iter_count,
                       Lifted* out) {
  Lifted lhs, rhs;
  STANDOFF_RETURN_IF_ERROR(EvalExpr(*expr.lhs, env, iter_count, &lhs));
  STANDOFF_RETURN_IF_ERROR(EvalExpr(*expr.rhs, env, iter_count, &rhs));
  if (!lhs.nodes.empty() || !rhs.nodes.empty()) {
    return Status::Invalid("'+' requires numeric operands");
  }
  if (lhs.atomics.size() != iter_count || rhs.atomics.size() != iter_count) {
    return Status::Invalid("'+' requires exactly one value per iteration");
  }
  const auto numeric = [](const Item& item) {
    return item.kind() == Item::Kind::kInt ||
           item.kind() == Item::Kind::kDouble;
  };
  const auto as_double = [](const Item& item) {
    return item.kind() == Item::Kind::kInt
               ? static_cast<double>(item.int_value())
               : item.double_value();
  };
  out->atomics.reserve(iter_count);
  for (uint32_t i = 0; i < iter_count; ++i) {
    const AtomicRow& a = lhs.atomics[i];
    const AtomicRow& b = rhs.atomics[i];
    if (a.iter != i || b.iter != i) {
      return Status::Invalid("'+' requires exactly one value per iteration");
    }
    if (!numeric(a.item) || !numeric(b.item)) {
      return Status::Invalid("'+' requires numeric operands");
    }
    out->atomics.push_back(AtomicRow{
        i, a.item.kind() == Item::Kind::kInt && b.item.kind() == Item::Kind::kInt
               ? Item::Int(a.item.int_value() + b.item.int_value())
               : Item::Double(as_double(a.item) + as_double(b.item))});
  }
  return Status::OK();
}

}  // namespace xquery
}  // namespace standoff
