#include "standoff/parallel_join.h"

#include <algorithm>
#include <cstdint>

namespace standoff {
namespace so {

namespace {

bool IsRejectOp(StandoffOp op) {
  return op == StandoffOp::kRejectNarrow || op == StandoffOp::kRejectWide;
}

StandoffOp SelectVariant(StandoffOp op) {
  switch (op) {
    case StandoffOp::kRejectNarrow: return StandoffOp::kSelectNarrow;
    case StandoffOp::kRejectWide: return StandoffOp::kSelectWide;
    default: return op;
  }
}

uint64_t PackKey(const IterMatch& m) {
  return (static_cast<uint64_t>(m.iter) << 32) | m.pre;
}

/// A borrowed arena (from the pool, when one is configured) that hands
/// itself back on scope exit.
class ScopedArena {
 public:
  explicit ScopedArena(JoinArenaPool* pool)
      : pool_(pool), arena_(pool ? pool->Acquire() : nullptr) {}
  ~ScopedArena() {
    if (pool_) pool_->Release(arena_);
  }
  ScopedArena(const ScopedArena&) = delete;
  ScopedArena& operator=(const ScopedArena&) = delete;

  JoinArena* get() const { return arena_; }

 private:
  JoinArenaPool* pool_;
  JoinArena* arena_;
};

/// One contiguous iteration range [lo, hi) and its context rows.
/// [cand_lo, cand_hi) is the pruned candidate index range the block
/// can possibly match (see PruneCandidateRange).
struct IterBlock {
  uint32_t lo = 0;
  uint32_t hi = 0;
  size_t cand_lo = 0;
  size_t cand_hi = 0;
  std::vector<IterRegion> context;
};

/// Partitions [0, iter_count) into at most `max_blocks` contiguous
/// ranges balanced by context-row count. Every iteration is covered;
/// blocks without context rows are dropped (they can produce no rows,
/// select or reject).
std::vector<IterBlock> MakeIterBlocks(const std::vector<IterRegion>& context,
                                      uint32_t iter_count,
                                      uint32_t max_blocks) {
  std::vector<size_t> rows_per_iter(iter_count, 0);
  for (const IterRegion& c : context) ++rows_per_iter[c.iter];
  const size_t target =
      (context.size() + max_blocks - 1) / std::max<uint32_t>(max_blocks, 1);

  std::vector<IterBlock> blocks;
  uint32_t lo = 0;
  size_t acc = 0;
  for (uint32_t iter = 0; iter < iter_count; ++iter) {
    acc += rows_per_iter[iter];
    const bool last = iter + 1 == iter_count;
    if (acc >= target || last) {
      if (acc > 0) {
        IterBlock block;
        block.lo = lo;
        block.hi = iter + 1;
        block.context.reserve(acc);
        blocks.push_back(std::move(block));
      }
      lo = iter + 1;
      acc = 0;
    }
  }
  if (!blocks.empty()) {
    std::vector<uint32_t> block_of_iter(iter_count, 0);
    for (size_t b = 0; b < blocks.size(); ++b) {
      for (uint32_t i = blocks[b].lo; i < blocks[b].hi; ++i) {
        block_of_iter[i] = static_cast<uint32_t>(b);
      }
    }
    for (const IterRegion& c : context) {
      blocks[block_of_iter[c.iter]].context.push_back(c);
    }
    // Pre-sort once per block in the kernel's merge order, so every
    // shard cell that re-joins this context hits the serial kernel's
    // already-sorted fast path instead of re-sorting per cell.
    for (IterBlock& block : blocks) {
      std::sort(block.context.begin(), block.context.end(),
                [](const IterRegion& a, const IterRegion& b) {
                  if (a.start != b.start) return a.start < b.start;
                  return a.end < b.end;
                });
    }
  }
  return blocks;
}

/// Restricts a block to the candidate indices it can possibly match,
/// by binary search on the start column. This is what makes the
/// iteration-range split work-efficient: blocks whose contexts cover
/// disjoint universe spans scan disjoint candidate ranges instead of
/// each rescanning the whole array.
///
///  * narrow: containment needs ctx.start <= cand.start and
///    cand.end <= ctx.end, so cand.start must lie in
///    [min ctx.start, max ctx.end];
///  * wide: overlap needs cand.start <= ctx.end, bounding only the
///    right side (a long candidate may start before every context and
///    still overlap, so the left side stays open).
void PruneCandidateRange(const RegionColumns& candidates, bool narrow,
                         IterBlock* block) {
  int64_t min_start = block->context.front().start;
  int64_t max_end = block->context.front().end;
  for (const IterRegion& c : block->context) {
    min_start = std::min(min_start, c.start);
    max_end = std::max(max_end, c.end);
  }
  const int64_t* begin = candidates.start;
  const int64_t* end = candidates.start + candidates.size;
  block->cand_lo =
      narrow ? static_cast<size_t>(std::lower_bound(begin, end, min_start) -
                                   begin)
             : 0;
  block->cand_hi = static_cast<size_t>(
      std::upper_bound(begin, end, max_end) - begin);
}

Status ValidateInputs(const std::vector<IterRegion>& context,
                      const std::vector<uint32_t>& ann_iters,
                      const RegionColumns& candidates, uint32_t iter_count) {
  for (const IterRegion& c : context) {
    if (c.iter >= iter_count) {
      return Status::Invalid("context row iteration " +
                             std::to_string(c.iter) + " >= iter_count " +
                             std::to_string(iter_count));
    }
    if (c.ann >= ann_iters.size() || ann_iters[c.ann] != c.iter) {
      return Status::Invalid("ann_iters inconsistent with context rows");
    }
    if (c.end < c.start) {
      return Status::Invalid("context region ends before it starts");
    }
  }
  // Slice-local sortedness does not imply global sortedness (a
  // violation can sit exactly on a shard boundary), so sequences
  // without the by-construction promise are checked whole here; the
  // verified view then passes the promise down to every cell slice.
  if (!candidates.start_sorted &&
      !std::is_sorted(candidates.start, candidates.start + candidates.size)) {
    return Status::Invalid("candidates must be sorted by region start");
  }
  return Status::OK();
}

}  // namespace

Status ParallelLoopLiftedStandoffJoinColumns(
    StandoffOp op, const std::vector<IterRegion>& context,
    const std::vector<uint32_t>& ann_iters, RegionColumns candidates,
    storage::Span<storage::Pre> candidate_ids, uint32_t iter_count,
    std::vector<IterMatch>* out, const ParallelJoinOptions& options) {
  out->clear();
  ThreadPool* pool =
      options.pool && options.pool->num_workers() > 0 ? options.pool : nullptr;
  const uint32_t blocks_wanted =
      options.iter_blocks > 0
          ? options.iter_blocks
          : static_cast<uint32_t>(pool ? pool->num_workers() + 1 : 1);
  const uint32_t shards = std::max<uint32_t>(options.candidate_shards, 1);

  // Tracing is a strictly serial contract; a degenerate decomposition
  // has nothing to parallelize. Both take the serial kernel verbatim.
  if (options.join.trace != nullptr || !pool ||
      (blocks_wanted <= 1 && shards <= 1)) {
    if (options.checkpoint) {
      STANDOFF_RETURN_IF_ERROR((*options.checkpoint)());
    }
    JoinOptions serial = options.join;
    ScopedArena arena(serial.arena == nullptr ? options.arenas : nullptr);
    if (serial.arena == nullptr) serial.arena = arena.get();
    return LoopLiftedStandoffJoinColumns(op, context, ann_iters, candidates,
                                         candidate_ids, iter_count, out,
                                         serial);
  }

  STANDOFF_RETURN_IF_ERROR(
      ValidateInputs(context, ann_iters, candidates, iter_count));
  candidates.start_sorted = true;  // verified above (or by construction)
  if (iter_count == 0 || context.empty() ||
      (candidates.empty() && !IsRejectOp(op))) {
    return Status::OK();
  }

  const StandoffOp select_op = SelectVariant(op);
  const bool narrow = select_op == StandoffOp::kSelectNarrow;
  std::vector<IterBlock> blocks =
      MakeIterBlocks(context, iter_count, blocks_wanted);
  for (IterBlock& block : blocks) {
    PruneCandidateRange(candidates, narrow, &block);
  }

  // Candidate shards split the whole start-sorted column set into
  // contiguous slices; a cell (block b, shard s) joins the block's
  // context against the intersection of shard s with the block's pruned
  // range. Every candidate is seen by exactly one shard, so cell
  // outputs merge by key without loss.
  const size_t num_shards =
      candidates.size < 2 * shards ? 1 : static_cast<size_t>(shards);
  const size_t cells = blocks.size() * num_shards;
  static const std::vector<storage::Pre> kNoUniverse;
  std::vector<std::vector<IterMatch>> cell_out(cells);
  const bool want_stats = options.join.stats != nullptr;
  std::vector<JoinStats> cell_stats(want_stats ? cells : 0);

  STANDOFF_RETURN_IF_ERROR(ParallelFor(
      pool, 0, cells, [&](size_t cell) -> Status {
        if (options.checkpoint) {
          STANDOFF_RETURN_IF_ERROR((*options.checkpoint)());
        }
        const size_t b = cell / num_shards;
        const size_t s = cell % num_shards;
        const size_t shard_lo = candidates.size * s / num_shards;
        const size_t shard_hi = candidates.size * (s + 1) / num_shards;
        const size_t lo = std::max(shard_lo, blocks[b].cand_lo);
        const size_t hi = std::min(shard_hi, blocks[b].cand_hi);
        if (lo >= hi) return Status::OK();  // nothing this cell can match
        ScopedArena arena(options.arenas);
        JoinOptions cell_options = options.join;
        cell_options.trace = nullptr;
        cell_options.arena = arena.get();
        cell_options.stats = want_stats ? &cell_stats[cell] : nullptr;
        // Pin the resolved dispatch level (idempotent under Resolve) so
        // every cell of this join provably runs the same kernel tier.
        cell_options.simd = simd::Resolve(options.join.simd);
        return LoopLiftedStandoffJoinColumns(
            select_op, blocks[b].context, ann_iters,
            candidates.Slice(lo, hi), kNoUniverse, iter_count,
            &cell_out[cell], cell_options);
      }));

  if (want_stats) {
    JoinStats total;
    for (const JoinStats& s : cell_stats) {
      total.active_peak = std::max(total.active_peak, s.active_peak);
      total.contexts_skipped += s.contexts_skipped;
      total.contexts_dead += s.contexts_dead;
      total.candidates_scanned += s.candidates_scanned;
      total.candidates_skipped += s.candidates_skipped;
      total.matches_emitted += s.matches_emitted;
    }
    *options.join.stats = total;
  }

  const bool reject = IsRejectOp(op);
  std::vector<storage::Pre> universe_storage;
  storage::Span<storage::Pre> universe;
  if (reject) {
    universe = detail::NormalizeUniverse(candidate_ids, &universe_storage);
  }

  // Per-block merge of the shard outputs (and reject complement) is
  // itself independent work; reuse the pool for it.
  std::vector<std::vector<IterMatch>> block_out(blocks.size());
  STANDOFF_RETURN_IF_ERROR(ParallelFor(
      pool, 0, blocks.size(), [&](size_t b) -> Status {
        if (options.checkpoint) {
          STANDOFF_RETURN_IF_ERROR((*options.checkpoint)());
        }
        std::vector<uint64_t> keys;
        size_t total = 0;
        for (size_t s = 0; s < num_shards; ++s) {
          total += cell_out[b * num_shards + s].size();
        }
        keys.reserve(total);
        for (size_t s = 0; s < num_shards; ++s) {
          for (const IterMatch& m : cell_out[b * num_shards + s]) {
            keys.push_back(PackKey(m));
          }
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        std::vector<IterMatch>& merged = block_out[b];
        merged.resize(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          merged[i] = IterMatch{static_cast<uint32_t>(keys[i] >> 32),
                                static_cast<storage::Pre>(keys[i])};
        }
        if (reject) {
          // The block's context rows drive the per-live-iteration
          // complement; iterations outside the block are simply not
          // present, so the serial helper applies unchanged.
          std::vector<IterMatch> complement;
          detail::ComplementPerIteration(blocks[b].context, merged, universe,
                                         iter_count, &complement);
          merged = std::move(complement);
        }
        return Status::OK();
      }));

  // Blocks cover ascending disjoint iteration ranges: concatenation is
  // already globally sorted by (iter, pre).
  size_t total = 0;
  for (const std::vector<IterMatch>& b : block_out) total += b.size();
  out->reserve(total);
  for (std::vector<IterMatch>& b : block_out) {
    out->insert(out->end(), b.begin(), b.end());
  }
  return Status::OK();
}

StatusOr<ShardedRegionIndexes> ShardedRegionIndexes::Build(
    const storage::ShardedStore& store, const StandoffConfig& config,
    ThreadPool* pool) {
  ShardedRegionIndexes result;
  result.by_doc_.resize(store.document_count());
  const ResolvedConfig resolved = Resolve(config, store.store().names());
  // One task per shard; tasks write disjoint by_doc_ slots.
  Status status = ParallelFor(
      pool, 0, store.shard_count(), [&](size_t shard) -> Status {
        for (storage::DocId doc :
             store.shard_docs(static_cast<uint32_t>(shard))) {
          StatusOr<RegionIndex> built =
              RegionIndex::Build(store.store().table(doc), resolved);
          if (!built.ok()) return built.status();
          result.by_doc_[doc] = built.MoveValueUnsafe();
        }
        return Status::OK();
      });
  if (!status.ok()) return status;
  return StatusOr<ShardedRegionIndexes>(std::move(result));
}

}  // namespace so
}  // namespace standoff
