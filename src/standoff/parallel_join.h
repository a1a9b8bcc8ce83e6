// The parallel loop-lifted StandOff join kernel, plus the per-shard
// region-index builder. The per-iteration baselines (basic, naive) stay
// serial: they are the paper's slow alternatives, not serving paths.
//
// The loop-lifted merge pass parallelizes on two independent axes:
//
//   * by ITERATION RANGE — iterations [0, iter_count) are split into
//     contiguous blocks balanced by context-row count; each block joins
//     only its own context rows, so blocks are independent;
//   * by CANDIDATE SHARD — the start-sorted candidate columns are split
//     into contiguous slices; a candidate matches in exactly one slice
//     (each slice task sees the block's full context), so slice outputs
//     are disjoint up to duplicate-id entries and merge cleanly.
//
// Every (block, shard) cell runs the unchanged serial columnar kernel
// on a column slice; cell outputs are merged by packed (iter, pre) key
// and blocks concatenate in iteration order, so the final result is
// BYTE-IDENTICAL to the serial kernel's for any thread/shard
// configuration. reject-* is computed as the matching select pass
// followed by a per-block complement against the candidate universe —
// the same canonical form the serial kernel produces. Cells borrow
// per-worker scratch arenas from a JoinArenaPool, so a warmed engine
// runs its cells without kernel-internal allocation.
#ifndef STANDOFF_STANDOFF_PARALLEL_JOIN_H_
#define STANDOFF_STANDOFF_PARALLEL_JOIN_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "standoff/merge_join.h"
#include "standoff/region_index.h"
#include "storage/sharded_store.h"

namespace standoff {
namespace so {

struct ParallelJoinOptions {
  /// Null (or zero-worker) pool runs the serial kernel unchanged.
  ThreadPool* pool = nullptr;
  /// Number of contiguous iteration blocks; 0 means one per pool
  /// worker plus the calling thread.
  uint32_t iter_blocks = 0;
  /// Number of contiguous candidate shards per block (>= 1).
  uint32_t candidate_shards = 1;
  /// Per-cell scratch arenas; null means per-cell local buffers.
  JoinArenaPool* arenas = nullptr;
  /// Forwarded to each per-cell serial kernel. A non-null `trace`
  /// forces fully serial execution (trace order is part of the serial
  /// contract); `stats` receives per-cell sums (max for active_peak).
  /// `join.arena` is only honored on the serial path — parallel cells
  /// draw from `arenas` instead.
  JoinOptions join;
  /// Deadline check, invoked at merge-pass block boundaries: once
  /// before the serial kernel, and at the start of every (block, shard)
  /// cell and block-merge task on the parallel path. A non-OK status
  /// aborts the join with that status. Must be safe to call
  /// concurrently from pool workers. Null means never.
  const std::function<Status()>* checkpoint = nullptr;
};

/// Parallel loop-lifted join over candidate columns. Same contract and
/// identical output as the serial columnar kernel; see the header
/// comment for the decomposition.
Status ParallelLoopLiftedStandoffJoinColumns(
    StandoffOp op, const std::vector<IterRegion>& context,
    const std::vector<uint32_t>& ann_iters, RegionColumns candidates,
    storage::Span<storage::Pre> candidate_ids, uint32_t iter_count,
    std::vector<IterMatch>* out, const ParallelJoinOptions& options);

/// One RegionIndex per document of a ShardedStore, built with one task
/// per shard. After Build returns, lookups are const and thread-safe.
class ShardedRegionIndexes {
 public:
  static StatusOr<ShardedRegionIndexes> Build(
      const storage::ShardedStore& store, const StandoffConfig& config,
      ThreadPool* pool);

  const RegionIndex& index(storage::DocId doc) const { return by_doc_[doc]; }
  size_t document_count() const { return by_doc_.size(); }

 private:
  std::vector<RegionIndex> by_doc_;
};

}  // namespace so
}  // namespace standoff

#endif  // STANDOFF_STANDOFF_PARALLEL_JOIN_H_
