// The three StandOff join implementations the paper compares
// (Sections 4.4–4.5):
//
//   NaiveStandoffJoin             — quadratic reference: every context
//                                   region × every candidate annotation.
//   BasicStandoffJoinColumns      — one merge pass over sorted inputs per
//                                   CALL; a nested query invokes it once
//                                   per loop iteration, re-scanning the
//                                   index each time.
//   LoopLiftedStandoffJoinColumns — one merge pass TOTAL: context regions
//                                   carry their loop iteration and the
//                                   pass answers every iteration at once
//                                   (Figure 4).
//
// All four operators are supported: select-narrow (candidates contained
// in a context region of the same iteration), select-wide (candidates
// overlapping one), and their complements reject-narrow / reject-wide
// over the candidate universe. Region boundaries are inclusive.
//
// The merge kernels consume the columnar (struct-of-arrays) region
// layout (`RegionColumns`) directly: the pass streams the start column,
// and when the active list is empty it GALLOPS (exponential + binary
// search over the start column) past every candidate that provably
// cannot match — sparse and skewed workloads become output-bounded
// instead of index-bounded.
//
// The loop-lifted kernel keeps an *active list* of context regions whose
// end has not yet passed the merge cursor. Two interchangeable structures
// implement it (the paper's Section 5 remark): a list sorted by region
// end (O(active) insert, output-bounded probes) and a min-heap on end
// (O(log active) insert, O(active) probes). Same-iteration context
// regions provably contained in an already-active one are pruned on
// insert (Listing 1, lines 11–18).
//
// Matches are emitted as packed 64-bit (iter << 32 | pre) keys into a
// reusable JoinArena; canonicalization is a no-op when emission was
// already strictly increasing (the common Q2/document-order shape) and
// an allocation-free radix pass otherwise. With a warm arena the merge
// performs zero heap allocations per call.
#ifndef STANDOFF_STANDOFF_MERGE_JOIN_H_
#define STANDOFF_STANDOFF_MERGE_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/status.h"
#include "standoff/region_index.h"

namespace standoff {
namespace so {

enum class StandoffOp {
  kSelectNarrow,
  kSelectWide,
  kRejectNarrow,
  kRejectWide,
};

const char* StandoffOpName(StandoffOp op);

struct Region {
  int64_t start = 0;
  int64_t end = 0;
};

/// An annotation with one or more regions, as the naive/basic joins see
/// them. An annotation matches narrow/wide when ANY of its regions does;
/// duplicate result rows are collapsed.
struct AreaAnnotation {
  storage::Pre id = 0;
  std::vector<Region> regions;
};

/// One loop-lifted context row: region `[start, end]`, live in loop
/// iteration `iter` — the paper's (iter, item) table with the item
/// resolved to its region. A multi-region context node contributes one
/// row per region, all with the same `iter`.
struct IterRegion {
  uint32_t iter = 0;
  int64_t start = 0;
  int64_t end = 0;
};

/// One loop-lifted result row: candidate node `pre` matches in `iter`.
struct IterMatch {
  uint32_t iter = 0;
  storage::Pre pre = 0;
};

inline bool operator==(const IterMatch& a, const IterMatch& b) {
  return a.iter == b.iter && a.pre == b.pre;
}

/// Receives a human-readable event per kernel step (Figure 4 traces).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Event(const std::string& what) = 0;
};

enum class ActiveListKind {
  kSortedList,  // sorted by region end; insert O(n), probe output-bounded
  kEndHeap,     // min-heap on region end; insert O(log n), probe O(n)
};

struct JoinStats {
  size_t active_peak = 0;        // max simultaneously active context rows
  size_t contexts_skipped = 0;   // pruned as same-iteration contained
  size_t contexts_dead = 0;      // skipped: end before every live candidate
  size_t candidates_scanned = 0; // probed by the merge cursor
  size_t candidates_skipped = 0; // galloped over without a probe
  size_t matches_emitted = 0;    // before per-iteration deduplication
};

namespace detail {

/// One active region, shared by both active-list structures. `id` is the
/// candidate node for candidate items and unused (0) for context items;
/// `iter` is the loop iteration for context items, unused for candidates.
struct ActiveItem {
  int64_t end = 0;
  int64_t start = 0;
  uint32_t iter = 0;
  storage::Pre id = 0;
};

}  // namespace detail

/// Reusable scratch for one merge pass: every buffer the kernel needs,
/// sized on first use and retained (capacity never shrinks) across
/// calls. One arena serves one call at a time. All members are owned
/// by the kernels — callers only construct, hold, and pass the arena.
class JoinArena {
 public:
  std::vector<IterRegion> ctx;               // sorted context copy
  std::vector<int64_t> iter_max_end;         // containment pruning
  std::vector<size_t> emit_stamp;            // per-iteration dedup
  std::vector<uint64_t> keys;                // packed (iter, pre) matches
  std::vector<uint64_t> keys_tmp;            // radix ping-pong buffer
  std::vector<detail::ActiveItem> active_a;  // context active storage
  std::vector<detail::ActiveItem> active_b;  // candidate active storage
  std::vector<storage::Pre> universe_scratch;
  std::vector<uint8_t> iter_present;         // reject complement scratch
};

/// Options of one join — the bottom layer of the options scheme
/// (DESIGN.md §15). EngineOptions carries one JoinOptions and the
/// planner and server derive theirs from it, so a kernel flag is stated
/// once and flows through engine, planner and server without
/// field-by-field copying. The algorithm knobs come first, then the
/// attachments (scratch, tracing, stats) that belong to a single call.
struct JoinOptions {
  ActiveListKind active_list = ActiveListKind::kSortedList;
  bool prune_contained_contexts = true;
  /// Skip-based merging: gallop the candidate cursor over runs with no
  /// active context, and drop context rows that end before every live
  /// candidate. Disabled automatically under `trace` (the trace contract
  /// is the full per-step event stream).
  bool gallop = true;
  /// Dispatch level for the branch-free/SIMD merge primitives
  /// (simd_kernels.h): kAuto resolves through the STANDOFF_SIMD env
  /// override, then CPUID; a forced level the CPU cannot run is clamped
  /// down. kScalar keeps the original per-row loops — the baseline the
  /// benchmarks compare against. Every level produces byte-identical
  /// output.
  simd::Level simd = simd::Level::kAuto;
  /// Reusable scratch; null means per-call local buffers (allocates).
  JoinArena* arena = nullptr;
  TraceSink* trace = nullptr;    // non-null: emit per-step events (slow)
  JoinStats* stats = nullptr;
};

/// Quadratic reference implementation over annotation lists. Output is
/// sorted by id and duplicate-free.
void NaiveStandoffJoin(StandoffOp op,
                       const std::vector<AreaAnnotation>& context,
                       const std::vector<AreaAnnotation>& candidates,
                       std::vector<storage::Pre>* out);

/// Single-iteration merge join over candidate columns (sorted by start;
/// verified unless the view promises `start_sorted`). `candidate_ids` is
/// the sorted candidate universe the reject- operators complement
/// against. Output is sorted by id and duplicate-free.
Status BasicStandoffJoinColumns(StandoffOp op,
                                const std::vector<AreaAnnotation>& context,
                                RegionColumns candidates,
                                storage::Span<storage::Pre> candidate_ids,
                                std::vector<storage::Pre>* out,
                                JoinOptions options = JoinOptions());

/// The loop-lifted kernel: answers all `iter_count` loop iterations in
/// one merge pass over the candidate columns. Every context row must
/// have `iter < iter_count` and `end >= start`. Output is sorted by
/// (iter, pre) and duplicate-free.
Status LoopLiftedStandoffJoinColumns(
    StandoffOp op, const std::vector<IterRegion>& context,
    RegionColumns candidates, storage::Span<storage::Pre> candidate_ids,
    uint32_t iter_count, std::vector<IterMatch>* out,
    JoinOptions options = JoinOptions());

}  // namespace so
}  // namespace standoff

#endif  // STANDOFF_STANDOFF_MERGE_JOIN_H_
