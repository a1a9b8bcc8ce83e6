#include "standoff/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace standoff {
namespace so {

const char* ChainOrderName(ChainOrder order) {
  switch (order) {
    case ChainOrder::kTopDown: return "top-down";
    case ChainOrder::kBottomUpLast: return "bottom-up-last";
  }
  return "?";
}

namespace {

bool IsSelect(StandoffOp op) {
  return op == StandoffOp::kSelectNarrow || op == StandoffOp::kSelectWide;
}

bool BottomUpLegal(const ChainSpec& spec) {
  if (spec.edges.size() < 2) return false;
  for (const ChainEdge& edge : spec.edges) {
    if (!IsSelect(edge.op)) return false;
  }
  return true;
}

uint64_t PackKey(uint32_t iter, storage::Pre pre) {
  return (static_cast<uint64_t>(iter) << 32) | pre;
}

// ---------------------------------------------------------------------------
// Cost model. Unit is "row visits"; only the relative ranking matters.
// ---------------------------------------------------------------------------

/// Expected fraction of the layer's rows one context region matches.
/// narrow: the candidate's start must fall inside the context region
/// (position factor ctx_width / layer_span) AND the candidate must be
/// no wider than the context (width-histogram factor). wide: overlap
/// needs the two intervals within ctx_width + cand_width of each other.
double EdgeMatchFraction(StandoffOp op, double ctx_avg_width,
                         const storage::RegionStats& layer) {
  if (layer.count == 0) return 0;
  const double span = std::max(layer.Span(), 1.0);
  const bool narrow =
      op == StandoffOp::kSelectNarrow || op == StandoffOp::kRejectNarrow;
  double frac;
  if (narrow) {
    frac = std::min(1.0, ctx_avg_width / span) *
           layer.FractionWidthAtMost(ctx_avg_width);
  } else {
    frac = std::min(1.0, (ctx_avg_width + layer.AvgWidth()) / span);
  }
  return std::clamp(frac, 0.0, 1.0);
}

/// One loop-lifted merge pass: sort the context, stream (or gallop) the
/// candidate column, emit the matches. Galloping pays a binary search
/// per context run to skip the unmatched candidate majority, so it wins
/// exactly when the pass is output-bounded.
double JoinCost(double ctx_rows, double cand_rows, double match_fraction,
                bool gallop, double out_rows) {
  const double sort = ctx_rows * std::log2(ctx_rows + 2);
  const double scan =
      gallop ? match_fraction * cand_rows +
                   std::log2(cand_rows + 2) * (ctx_rows + 1)
             : cand_rows;
  return sort + scan + std::max(out_rows, 0.0);
}

struct EdgeEstimate {
  EdgePlan plan;
  double out_rows = 0;    // expected matches (the next context size)
  double out_width = 0;   // expected avg width of the next context
};

/// Estimates one edge given the running context estimate, choosing the
/// cheaper gallop setting. `cand_rows` may be overridden (bottom-up's
/// filtered middle layer); the match FRACTION is a per-candidate
/// probability, so it survives the override unchanged.
EdgeEstimate EstimateEdge(const ChainEdge& edge, double ctx_rows,
                          double ctx_avg_width, double cand_rows,
                          uint32_t iter_count) {
  const storage::RegionStats& stats = edge.layer.stats;
  EdgeEstimate est;
  est.plan.op = edge.op;
  est.plan.est_match_fraction =
      EdgeMatchFraction(edge.op, ctx_avg_width, stats);
  const double frac = est.plan.est_match_fraction;
  if (IsSelect(edge.op)) {
    est.out_rows = ctx_rows * frac * cand_rows;
    est.out_width = edge.op == StandoffOp::kSelectNarrow
                        ? std::min(ctx_avg_width, stats.AvgWidth())
                        : stats.AvgWidth();
  } else {
    const double live_iters = std::min(ctx_rows, double(iter_count));
    est.out_rows = live_iters * cand_rows * (1.0 - frac);
    est.out_width = stats.AvgWidth();
  }
  const double with_gallop =
      JoinCost(ctx_rows, cand_rows, frac, true, est.out_rows);
  const double without =
      JoinCost(ctx_rows, cand_rows, frac, false, est.out_rows);
  est.plan.gallop = with_gallop < without;
  est.plan.est_cost = std::min(with_gallop, without);
  return est;
}

/// Walks edges [0, edge_count) top-down, filling `plans` and returning
/// the summed cost. `last_cand_rows_override` (< 0 = none) substitutes
/// the final edge's candidate count — how bottom-up prices the upper
/// chain against the filtered middle layer.
double EstimateTopDown(const ChainSpec& spec, size_t edge_count,
                       double last_cand_rows_override,
                       std::vector<EdgePlan>* plans) {
  double rows = static_cast<double>(spec.context.size());
  double width = spec.context_stats.AvgWidth();
  double total = 0;
  for (size_t e = 0; e < edge_count; ++e) {
    double cand_rows = static_cast<double>(spec.edges[e].layer.stats.count);
    if (e + 1 == edge_count && last_cand_rows_override >= 0) {
      cand_rows = last_cand_rows_override;
    }
    const EdgeEstimate est = EstimateEdge(spec.edges[e], rows, width,
                                          cand_rows, spec.iter_count);
    (*plans)[e] = est.plan;
    total += est.plan.est_cost;
    rows = est.out_rows;
    width = est.out_width;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

/// One loop-lifted join of `ctx` against `layer` under `edge`: the
/// checkpoint, the kernel, the edge's post-filter and the counters.
/// `gallop` is the edge's choice; the caller's join.gallop = false wins.
Status RunJoin(const ChainEdge& edge, const ChainLayer& layer, bool gallop,
               const std::vector<IterRegion>& ctx, uint32_t iter_count,
               const ChainExecOptions& options, std::vector<IterMatch>* out,
               ChainStats* stats) {
  if (options.checkpoint) STANDOFF_RETURN_IF_ERROR((*options.checkpoint)());
  if (!layer.ids_set) {
    return Status::Invalid("chain layer has no candidate universe");
  }
  JoinOptions join = options.join;
  join.gallop = options.join.gallop && gallop;
  STANDOFF_RETURN_IF_ERROR(LoopLiftedStandoffJoinColumns(
      edge.op, ctx, layer.columns, layer.ids, iter_count, out, join));
  if (edge.post) STANDOFF_RETURN_IF_ERROR(edge.post(out));
  if (stats) {
    ++stats->joins_run;
    stats->context_rows_total += ctx.size();
  }
  return Status::OK();
}

/// Edges [0, edge_count) in spec order. `last_layer_override` (if
/// non-null) replaces the FINAL edge's layer — bottom-up's filtered
/// middle; bottom-up then reports only its full chain, so no edge here
/// reaches the prefix sink. Gallop choices follow ExecuteChain's
/// adaptive rule. Output is the final edge's matches.
Status RunTopDown(const ChainSpec& spec, const ChainPlan& plan,
                  size_t edge_count, const ChainLayer* last_layer_override,
                  const ChainExecOptions& options,
                  std::vector<IterMatch>* out, ChainStats* stats) {
  const std::vector<IterRegion>* ctx = &spec.context;
  double ctx_width = spec.context_stats.AvgWidth();
  std::vector<IterRegion> ctx_buf;
  std::vector<IterMatch> matches;
  for (size_t e = 0; e < edge_count; ++e) {
    const ChainEdge& edge = spec.edges[e];
    const bool last = e + 1 == edge_count;
    const bool filtered = last && last_layer_override;
    const ChainLayer& layer = filtered ? *last_layer_override : edge.layer;
    bool gallop = plan.edges[e].gallop;
    if (e > 0 || filtered) {
      const double cand_rows = static_cast<double>(
          filtered ? layer.columns.size : edge.layer.stats.count);
      gallop = EstimateEdge(edge, static_cast<double>(ctx->size()), ctx_width,
                            cand_rows, spec.iter_count)
                   .plan.gallop;
    }
    matches.clear();
    STANDOFF_RETURN_IF_ERROR(RunJoin(edge, layer, gallop, *ctx,
                                     spec.iter_count, options, &matches,
                                     stats));
    if (options.prefix_sink && last_layer_override == nullptr) {
      STANDOFF_RETURN_IF_ERROR((*options.prefix_sink)(e, matches));
    }
    if (last) break;
    if (layer.index == nullptr) {
      return Status::Invalid("non-final chain edge needs a region index");
    }
    // The join has finished reading *ctx; the buffers can be refilled.
    MatchesToContext(matches, *layer.index, &ctx_buf);
    ctx = &ctx_buf;
    ctx_width = ContextStats(ctx_buf).AvgWidth();
  }
  *out = std::move(matches);
  return Status::OK();
}

/// Bottom-up-last: run the FINAL edge first, with one loop iteration
/// per row of the second-to-last layer; drop every id whose rows all
/// matched nothing; run the remaining chain top-down against the
/// surviving ids' rows; compose the two match sets.
Status RunBottomUpLast(const ChainSpec& spec, const ChainPlan& plan,
                       const ChainExecOptions& options,
                       std::vector<IterMatch>* out, ChainStats* stats) {
  const size_t edge_total = spec.edges.size();
  const ChainEdge& mid_edge = spec.edges[edge_total - 2];
  const ChainEdge& last_edge = spec.edges[edge_total - 1];
  const RegionColumns mid = mid_edge.layer.columns;
  const uint32_t mid_rows = static_cast<uint32_t>(mid.size);

  // 1. The final edge, loop-lifted over every middle-layer row at once.
  std::vector<IterRegion> row_ctx(mid_rows);
  for (uint32_t r = 0; r < mid_rows; ++r) {
    row_ctx[r] = IterRegion{r, mid.start[r], mid.end[r]};
  }
  std::vector<IterMatch> low;  // (middle row, final-layer node)
  STANDOFF_RETURN_IF_ERROR(RunJoin(last_edge, last_edge.layer,
                                   plan.edges[edge_total - 1].gallop, row_ctx,
                                   mid_rows, options, &low, stats));

  // 2. Filter the middle layer BY ID: an id survives when ANY of its
  // rows matched something, and then EVERY row of that id stays — the
  // upper edge may match a surviving id through a region that has no
  // final-layer matches of its own, exactly as top-down would (an id
  // matches via any region, then contributes all its regions).
  // `low` is sorted by (row, pre): each matching row is one run.
  std::vector<std::pair<size_t, size_t>> row_range(mid_rows, {0, 0});
  std::vector<storage::Pre> filtered_ids;  // surviving ids, sorted unique
  for (size_t i = 0; i < low.size();) {
    size_t j = i;
    while (j < low.size() && low[j].iter == low[i].iter) ++j;
    row_range[low[i].iter] = {i, j};
    filtered_ids.push_back(mid.id[low[i].iter]);
    i = j;
  }
  std::sort(filtered_ids.begin(), filtered_ids.end());
  filtered_ids.erase(std::unique(filtered_ids.begin(), filtered_ids.end()),
                     filtered_ids.end());
  std::vector<uint32_t> keep;  // every row of a surviving id, ascending
  for (uint32_t r = 0; r < mid_rows; ++r) {
    if (std::binary_search(filtered_ids.begin(), filtered_ids.end(),
                           mid.id[r])) {
      keep.push_back(r);
    }
  }
  RegionColumnsData filtered;
  filtered.Reserve(keep.size());
  for (uint32_t r : keep) {
    filtered.Append(mid.start[r], mid.end[r], mid.id[r]);
  }
  if (stats) {
    stats->bottom_up_kept_rows = keep.size();
    stats->bottom_up_dropped_rows = mid.size - keep.size();
  }
  ChainLayer filtered_layer;
  filtered_layer.columns = filtered.View();  // ascending rows: stays sorted
  filtered_layer.ids = filtered_ids;
  filtered_layer.ids_set = true;
  filtered_layer.index = mid_edge.layer.index;

  // 3. The upper chain, its final edge aimed at the filtered layer.
  std::vector<IterMatch> mid_matches;
  STANDOFF_RETURN_IF_ERROR(RunTopDown(spec, plan, edge_total - 1,
                                      &filtered_layer, options, &mid_matches,
                                      stats));

  // 4. Compose: every matched middle node contributes the final-layer
  // matches of each of its surviving rows.
  std::vector<uint32_t> by_id(keep.size());
  for (uint32_t k = 0; k < by_id.size(); ++k) by_id[k] = k;
  std::sort(by_id.begin(), by_id.end(), [&](uint32_t a, uint32_t b) {
    return mid.id[keep[a]] < mid.id[keep[b]];
  });
  std::vector<uint64_t> keys;
  for (const IterMatch& m : mid_matches) {
    auto it = std::lower_bound(
        by_id.begin(), by_id.end(), m.pre,
        [&](uint32_t k, storage::Pre value) { return mid.id[keep[k]] < value; });
    for (; it != by_id.end() && mid.id[keep[*it]] == m.pre; ++it) {
      const auto [lo, hi] = row_range[keep[*it]];
      for (size_t i = lo; i < hi; ++i) {
        keys.push_back(PackKey(m.iter, low[i].pre));
      }
      if (stats) stats->composed_matches += hi - lo;
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  out->resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    (*out)[i] = IterMatch{static_cast<uint32_t>(keys[i] >> 32),
                          static_cast<storage::Pre>(keys[i])};
  }
  return Status::OK();
}

}  // namespace

storage::RegionStats ContextStats(const std::vector<IterRegion>& ctx) {
  std::vector<int64_t> starts, ends;
  starts.reserve(ctx.size());
  ends.reserve(ctx.size());
  for (const IterRegion& r : ctx) {
    starts.push_back(r.start);
    ends.push_back(r.end);
  }
  return storage::RegionStats::Compute(starts.data(), ends.data(),
                                       starts.size());
}

void MatchesToContext(const std::vector<IterMatch>& matches,
                      const RegionIndex& index,
                      std::vector<IterRegion>* ctx) {
  ctx->clear();
  for (const IterMatch& m : matches) {
    index.ForEachRegionOf(m.pre, [&](int64_t start, int64_t end) {
      ctx->push_back(IterRegion{m.iter, start, end});
    });
  }
}

ChainPlan PlanChain(const ChainSpec& spec, PlanMode mode) {
  ChainPlan plan;
  const size_t edge_total = spec.edges.size();
  plan.edges.resize(edge_total);
  plan.est_cost_top_down =
      EstimateTopDown(spec, edge_total, /*last_cand_rows_override=*/-1,
                      &plan.edges);

  const bool bottom_up_legal = BottomUpLegal(spec);
  std::vector<EdgePlan> bu_edges(edge_total);
  double bu_cost = std::numeric_limits<double>::infinity();
  if (bottom_up_legal) {
    // The final edge runs with the whole middle layer as its context.
    const storage::RegionStats& mid = spec.edges[edge_total - 2].layer.stats;
    const EdgeEstimate low = EstimateEdge(
        spec.edges[edge_total - 1], static_cast<double>(mid.count),
        mid.AvgWidth(),
        static_cast<double>(spec.edges[edge_total - 1].layer.stats.count),
        static_cast<uint32_t>(mid.count));
    const double kept =
        static_cast<double>(mid.count) *
        std::min(1.0, low.plan.est_match_fraction *
                          static_cast<double>(
                              spec.edges[edge_total - 1].layer.stats.count));
    bu_cost = low.plan.est_cost +
              EstimateTopDown(spec, edge_total - 1, kept, &bu_edges) +
              low.out_rows;  // compose visits each low match
    bu_edges[edge_total - 1] = low.plan;
    plan.est_cost_bottom_up = bu_cost;
  }

  bool bottom_up = false;
  switch (mode) {
    case PlanMode::kTopDown:
      break;
    case PlanMode::kBottomUpLast:
      bottom_up = bottom_up_legal;
      break;
    case PlanMode::kAuto:
      bottom_up = bottom_up_legal && bu_cost < plan.est_cost_top_down;
      break;
  }
  if (bottom_up) {
    plan.order = ChainOrder::kBottomUpLast;
    plan.edges = std::move(bu_edges);
    plan.est_cost = bu_cost;
  } else {
    plan.order = ChainOrder::kTopDown;
    plan.est_cost = plan.est_cost_top_down;
  }
  return plan;
}

std::string ChainPlan::Describe() const {
  std::string out = "order=";
  out += ChainOrderName(order);
  char buf[64];
  std::snprintf(buf, sizeof buf, " cost=%.3g", est_cost);
  out += buf;
  for (const EdgePlan& e : edges) {
    std::snprintf(buf, sizeof buf, " [%s gallop=%d sel=%.3g]",
                  StandoffOpName(e.op), e.gallop ? 1 : 0,
                  e.est_match_fraction);
    out += buf;
  }
  return out;
}

Status ExecuteChain(const ChainSpec& spec, const ChainPlan& plan,
                    const ChainExecOptions& options,
                    std::vector<IterMatch>* out, ChainStats* stats) {
  out->clear();
  if (stats) *stats = ChainStats{};
  if (spec.edges.empty()) {
    return Status::Invalid("chain needs at least one edge");
  }
  if (plan.edges.size() != spec.edges.size()) {
    return Status::Invalid("plan does not match the chain's edge count");
  }
  if (plan.order == ChainOrder::kBottomUpLast) {
    if (!BottomUpLegal(spec)) {
      return Status::Invalid(
          "bottom-up-last plan on a chain with rejects or a single edge");
    }
    STANDOFF_RETURN_IF_ERROR(RunBottomUpLast(spec, plan, options, out, stats));
    if (options.prefix_sink) {
      return (*options.prefix_sink)(spec.edges.size() - 1, *out);
    }
    return Status::OK();
  }
  return RunTopDown(spec, plan, spec.edges.size(), nullptr, options, out,
                    stats);
}

// ---------------------------------------------------------------------------
// Sub-plan memo.
// ---------------------------------------------------------------------------

std::shared_ptr<const SubPlanMemo::Entry> SubPlanMemo::Lookup(
    const std::string& key) {
  auto found = by_key_.find(key);
  if (found == by_key_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, found->second);
  return found->second->entry;
}

void SubPlanMemo::Insert(const std::string& key,
                         std::shared_ptr<const Entry> entry) {
  auto found = by_key_.find(key);
  if (found != by_key_.end()) {
    found->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, found->second);
    return;
  }
  lru_.push_front(Node{key, std::move(entry)});
  by_key_.emplace(lru_.front().key, lru_.begin());
  while (lru_.size() > capacity_) {
    by_key_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
}

void SubPlanMemo::Clear() {
  by_key_.clear();
  lru_.clear();
}

void SubPlanMemo::EraseIf(const std::function<bool(const Entry&)>& drop) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (drop(*it->entry)) {
      by_key_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace so
}  // namespace standoff
