#include "standoff/merge_join.h"

#include <algorithm>
#include <climits>
#include <cstdio>

#include "standoff/simd_kernels.h"

namespace standoff {
namespace so {

const char* StandoffOpName(StandoffOp op) {
  switch (op) {
    case StandoffOp::kSelectNarrow: return "select-narrow";
    case StandoffOp::kSelectWide: return "select-wide";
    case StandoffOp::kRejectNarrow: return "reject-narrow";
    case StandoffOp::kRejectWide: return "reject-wide";
  }
  return "?";
}

namespace {

using detail::ActiveItem;

bool IsNarrow(StandoffOp op) {
  return op == StandoffOp::kSelectNarrow || op == StandoffOp::kRejectNarrow;
}

bool IsReject(StandoffOp op) {
  return op == StandoffOp::kRejectNarrow || op == StandoffOp::kRejectWide;
}

std::string RegionLabel(int64_t start, int64_t end) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "[%lld,%lld]",
                static_cast<long long>(start), static_cast<long long>(end));
  return buf;
}

std::string CtxLabel(uint32_t iter, int64_t start, int64_t end) {
  // Iterations print 1-based, as in the paper's Figure 4.
  return "(iter" + std::to_string(iter + 1) + ", " +
         RegionLabel(start, end) + ")";
}

/// First index in [lo, hi) whose start is >= v: an exponential probe
/// brackets the run, then a binary search pins it, so the cost is
/// logarithmic in the DISTANCE skipped, not in the array size. The
/// binary tail runs through the dispatch table's branch-free
/// count-less kernel (identical result to std::lower_bound).
size_t GallopLowerBound(const simdk::KernelOps& ops, const int64_t* a,
                        size_t lo, size_t hi, int64_t v) {
  size_t bound = 1;
  while (lo + bound < hi && a[lo + bound] < v) bound <<= 1;
  const size_t search_lo = lo + (bound >> 1);
  const size_t search_hi = std::min(hi, lo + bound + 1);
  return simdk::LowerBoundI64(ops, a, search_lo, search_hi, v);
}

/// Tile length for the single-context block fast paths: 4096 rows keep
/// the three candidate columns (96 KiB) plus the emitted keys inside a
/// typical L2 slice, partitioning the dense merge into cache-resident
/// ranges while the next tile is prefetched.
constexpr size_t kBlockTileRows = 4096;

/// Active set as a vector sorted ascending by region end, with a lazy
/// head offset so retiring expired items is O(1) amortized. Insertion
/// into the middle is O(active) — the cost the kEndHeap variant trades
/// against. Storage is the caller's (arena) vector; capacity persists.
class SortedEndList {
 public:
  explicit SortedEndList(std::vector<ActiveItem>* storage) : v_(*storage) {
    v_.clear();
  }

  void Insert(const ActiveItem& item) {
    auto it = std::upper_bound(
        v_.begin() + static_cast<ptrdiff_t>(head_), v_.end(), item.end,
        [](int64_t end, const ActiveItem& a) { return end < a.end; });
    v_.insert(it, item);
  }

  template <typename Fn>
  void RetireBelow(int64_t threshold, Fn&& fn) {
    while (head_ < v_.size() && v_[head_].end < threshold) {
      fn(v_[head_]);
      ++head_;
    }
    if (head_ > 64 && head_ > v_.size() / 2) {
      v_.erase(v_.begin(), v_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Visits items with end >= threshold: a binary search plus a scan of
  /// only the qualifying suffix (output-bounded).
  template <typename Fn>
  void ForEachEndAtLeast(int64_t threshold, Fn&& fn) const {
    auto it = std::lower_bound(
        v_.begin() + static_cast<ptrdiff_t>(head_), v_.end(), threshold,
        [](const ActiveItem& a, int64_t end) { return a.end < end; });
    for (; it != v_.end(); ++it) fn(*it);
  }

  template <typename Fn>
  void ForEachAll(Fn&& fn) const {
    for (size_t i = head_; i < v_.size(); ++i) fn(v_[i]);
  }

  size_t size() const { return v_.size() - head_; }
  bool empty() const { return head_ == v_.size(); }

  /// The sole live item when exactly one is active, else null — the
  /// trigger for the blockwise fast paths.
  const ActiveItem* Single() const {
    return v_.size() - head_ == 1 ? &v_[head_] : nullptr;
  }

 private:
  std::vector<ActiveItem>& v_;
  size_t head_ = 0;
};

/// Active set as a binary min-heap on region end: O(log active) insert,
/// but every probe scans the whole heap.
class EndHeap {
 public:
  explicit EndHeap(std::vector<ActiveItem>* storage) : heap_(*storage) {
    heap_.clear();
  }

  void Insert(const ActiveItem& item) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), ByEndGreater);
  }

  template <typename Fn>
  void RetireBelow(int64_t threshold, Fn&& fn) {
    while (!heap_.empty() && heap_.front().end < threshold) {
      fn(heap_.front());
      std::pop_heap(heap_.begin(), heap_.end(), ByEndGreater);
      heap_.pop_back();
    }
  }

  template <typename Fn>
  void ForEachEndAtLeast(int64_t threshold, Fn&& fn) const {
    for (const ActiveItem& item : heap_) {
      if (item.end >= threshold) fn(item);
    }
  }

  template <typename Fn>
  void ForEachAll(Fn&& fn) const {
    for (const ActiveItem& item : heap_) fn(item);
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  const ActiveItem* Single() const {
    return heap_.size() == 1 ? &heap_[0] : nullptr;
  }

 private:
  static bool ByEndGreater(const ActiveItem& a, const ActiveItem& b) {
    return a.end > b.end;
  }

  std::vector<ActiveItem>& heap_;
};

/// Shared per-pass scratch, backed by the arena: all buffers are
/// assigned (never freed) up front; the merge loop performs no
/// allocation once the arena is warm. Matches are emitted as packed
/// (iter << 32 | pre) keys, with the emission order tracked so the
/// canonicalization pass can be skipped when the keys already came out
/// strictly increasing.
struct PassState {
  std::vector<int64_t>& iter_max_end;  // same-iteration containment pruning
  std::vector<size_t>& emit_stamp;     // per-iteration dedup, keyed by cand
  std::vector<uint64_t>& keys;         // packed match emission
  bool emitted_sorted = true;          // keys non-decreasing so far
  bool emitted_dup = false;            // adjacent equal keys seen
  uint64_t last_key = 0;
  size_t active_peak = 0;
  size_t contexts_skipped = 0;
  size_t contexts_dead = 0;
  size_t candidates_scanned = 0;
  size_t candidates_skipped = 0;
  size_t matches_emitted = 0;

  PassState(JoinArena* arena, uint32_t iter_count, bool prune)
      : iter_max_end(arena->iter_max_end),
        emit_stamp(arena->emit_stamp),
        keys(arena->keys) {
    if (prune) {
      iter_max_end.assign(iter_count, INT64_MIN);
    } else {
      iter_max_end.clear();
    }
    emit_stamp.assign(iter_count, SIZE_MAX);
    keys.clear();
  }

  /// True if a previously seen same-iteration context region provably
  /// contains `c` (its recorded end reaches at least c.end and, by
  /// start-ordered arrival, its start is <= c.start).
  bool ShouldPrune(const IterRegion& c) const {
    return !iter_max_end.empty() && iter_max_end[c.iter] >= c.end;
  }

  void NoteSeen(const IterRegion& c) {
    if (!iter_max_end.empty()) iter_max_end[c.iter] = c.end;
  }

  void Emit(uint32_t iter, storage::Pre pre) {
    const uint64_t key = (static_cast<uint64_t>(iter) << 32) | pre;
    if (!keys.empty()) {
      if (key < last_key) {
        emitted_sorted = false;
      } else if (key == last_key) {
        emitted_dup = true;
      }
    }
    last_key = key;
    keys.push_back(key);
  }

  /// Replays Emit()'s order/duplicate tracking over keys[base, size())
  /// after a blockwise kernel appended them in bulk, so the
  /// canonicalization decision cannot diverge from the per-row path.
  void NoteBulkAppended(size_t base) {
    const size_t n = keys.size();
    if (base >= n) return;
    uint64_t prev = last_key;
    size_t t = base;
    if (base == 0) {  // first key overall has no predecessor to compare
      prev = keys[0];
      t = 1;
    }
    bool unsorted = false;
    bool dup = false;
    for (; t < n; ++t) {
      const uint64_t key = keys[t];
      unsorted |= key < prev;
      dup |= key == prev;
      prev = key;
    }
    emitted_sorted &= !unsorted;
    emitted_dup |= dup;
    last_key = prev;
  }
};

/// Narrow merge pass: context regions and candidates both stream in
/// ascending start order; a candidate matches iteration i when some
/// active i-context's end reaches past the candidate's end. With
/// `gallop`, runs of candidates with no active context are skipped by
/// exponential + binary search over the start column, and context rows
/// that end before every remaining candidate are never activated.
/// `ops` supplies the dispatch-selected branch-free primitives (always
/// valid; scalar level gets the scalar table). `blocks` enables the
/// single-context blockwise fast path — off at scalar level (the
/// per-row loop IS the scalar baseline) and under trace.
template <typename CtxSet>
void SelectNarrowPass(const std::vector<IterRegion>& ctx,
                      const RegionColumns& cand, bool gallop,
                      const simdk::KernelOps& ops, bool blocks,
                      JoinArena* arena, PassState* state, TraceSink* trace) {
  CtxSet active(&arena->active_a);
  size_t i = 0;
  size_t j = 0;
  while (j < cand.size) {
    const int64_t rstart = cand.start[j];
    while (i < ctx.size() && ctx[i].start <= rstart) {
      const IterRegion& c = ctx[i];
      if (state->ShouldPrune(c)) {
        ++state->contexts_skipped;
        if (trace) {
          trace->Event("read context " + CtxLabel(c.iter, c.start, c.end) +
                       " -> pruned (contained in an active same-iteration "
                       "region)");
        }
      } else if (gallop && c.end < rstart) {
        // Dead on arrival: every remaining candidate starts at or after
        // rstart, past this region's end — activation could only ever
        // retire it unprobed. Still feeds the pruning bound (a region
        // contained in a dead region is itself dead).
        ++state->contexts_dead;
        state->NoteSeen(c);
      } else {
        active.Insert(ActiveItem{c.end, c.start, c.iter, 0});
        state->NoteSeen(c);
        state->active_peak = std::max(state->active_peak, active.size());
        if (trace) {
          trace->Event("read context " + CtxLabel(c.iter, c.start, c.end) +
                       " -> activate");
        }
      }
      ++i;
    }
    active.RetireBelow(rstart, [&](const ActiveItem& c) {
      if (trace) {
        trace->Event("retire " + CtxLabel(c.iter, c.start, c.end) +
                     " (ends before candidate start " + std::to_string(rstart) +
                     ")");
      }
    });
    if (gallop && active.empty()) {
      // No live context: this candidate and every one before the next
      // context start are provably match-free (contained candidates
      // need a context starting at or before them, and all remaining
      // contexts start strictly later).
      if (i >= ctx.size()) {
        state->candidates_skipped += cand.size - j;
        break;
      }
      const size_t next = GallopLowerBound(ops, cand.start, j, cand.size,
                                           ctx[i].start);
      state->candidates_skipped += next - j;
      if (next < cand.size) {
        // The merge cursor lands here next: pull the candidate run's
        // first lines in while the loop re-enters.
        STANDOFF_PREFETCH(cand.start + next);
        STANDOFF_PREFETCH(cand.end + next);
        STANDOFF_PREFETCH(cand.id + next);
      }
      j = next;
      continue;
    }
    if (blocks) {
      if (const ActiveItem* c = active.Single()) {
        // Single-context block: until the first candidate starting past
        // c->end (retire boundary) or at/after the next context row's
        // start (activation boundary), the active set provably stays
        // {c}, and containment reduces to end[k] <= c->end. The run is
        // processed in L2-sized tiles — blockwise compare, branch-free
        // mask compaction straight into the packed keys — with the next
        // tile prefetched; order/dup tracking is replayed afterwards,
        // so the output stays byte-identical to the per-row path.
        size_t hi = simdk::UpperBoundI64(ops, cand.start, j, cand.size,
                                         c->end);
        if (i < ctx.size()) {
          hi = std::min(
              hi, simdk::LowerBoundI64(ops, cand.start, j, hi, ctx[i].start));
        }
        if (hi > j) {
          const uint64_t key_base = static_cast<uint64_t>(c->iter) << 32;
          const int64_t bound = c->end;
          for (size_t k = j; k < hi; k += kBlockTileRows) {
            const size_t tile_end = std::min(hi, k + kBlockTileRows);
            if (tile_end < hi) {
              STANDOFF_PREFETCH(cand.start + tile_end);
              STANDOFF_PREFETCH(cand.end + tile_end);
              STANDOFF_PREFETCH(cand.id + tile_end);
            }
            const size_t base = state->keys.size();
            state->keys.resize(base + (tile_end - k));
            const size_t cnt =
                ops.compact_le_i64(cand.end + k, cand.id + k, tile_end - k,
                                   bound, key_base, state->keys.data() + base);
            state->keys.resize(base + cnt);
            state->NoteBulkAppended(base);
            state->matches_emitted += cnt;
          }
          state->candidates_scanned += hi - j;
          j = hi;
          continue;
        }
      }
    }
    ++state->candidates_scanned;
    if (trace) {
      trace->Event("read candidate " + RegionLabel(rstart, cand.end[j]) +
                   " (node " + std::to_string(cand.id[j]) + ") -> probe " +
                   std::to_string(active.size()) + " active");
    }
    const int64_t rend = cand.end[j];
    const storage::Pre rid = cand.id[j];
    active.ForEachEndAtLeast(rend, [&](const ActiveItem& c) {
      ++state->matches_emitted;
      if (state->emit_stamp[c.iter] != j) {
        state->emit_stamp[c.iter] = j;
        state->Emit(c.iter, rid);
        if (trace) {
          trace->Event("match (iter" + std::to_string(c.iter + 1) +
                       ", node " + std::to_string(rid) + ")");
        }
      }
    });
    ++j;
  }
}

/// Wide (overlap) merge pass: a symmetric interval join. Both inputs
/// stream by start; each keeps the other side's not-yet-expired regions
/// active, and every overlapping (context, candidate) pair is emitted by
/// whichever side arrives later. With `gallop`, rows that end before
/// the other side's cursor while nothing is active are dropped without
/// entering an active set, and the pass stops once contexts are
/// exhausted with no context active.
template <typename CtxSet, typename CandSet>
void SelectWidePass(const std::vector<IterRegion>& ctx,
                    const RegionColumns& cand, bool gallop,
                    const simdk::KernelOps& ops, bool blocks,
                    JoinArena* arena, PassState* state, TraceSink* trace) {
  CtxSet active_ctx(&arena->active_a);
  CandSet active_cand(&arena->active_b);
  size_t i = 0, j = 0;
  while (i < ctx.size() || j < cand.size) {
    const bool take_ctx =
        j >= cand.size ||
        (i < ctx.size() && ctx[i].start <= cand.start[j]);
    if (take_ctx) {
      const IterRegion& c = ctx[i];
      active_cand.RetireBelow(c.start, [&](const ActiveItem& r) {
        if (trace) {
          trace->Event("retire candidate " + RegionLabel(r.start, r.end) +
                       " (node " + std::to_string(r.id) + ")");
        }
      });
      if (state->ShouldPrune(c)) {
        ++state->contexts_skipped;
        if (trace) {
          trace->Event("read context " + CtxLabel(c.iter, c.start, c.end) +
                       " -> pruned (contained in an active same-iteration "
                       "region)");
        }
      } else if (gallop && active_cand.empty() &&
                 (j >= cand.size || c.end < cand.start[j])) {
        // Nothing active to pair with, and the region expires before the
        // next candidate arrives: it can never overlap anything.
        ++state->contexts_dead;
        state->NoteSeen(c);
      } else {
        active_cand.ForEachAll([&](const ActiveItem& r) {
          ++state->matches_emitted;
          state->Emit(c.iter, r.id);
        });
        active_ctx.Insert(ActiveItem{c.end, c.start, c.iter, 0});
        state->NoteSeen(c);
        if (trace) {
          trace->Event("read context " + CtxLabel(c.iter, c.start, c.end) +
                       " -> activate");
        }
      }
      state->active_peak = std::max(
          state->active_peak, active_ctx.size() + active_cand.size());
      ++i;
    } else {
      const int64_t rstart = cand.start[j];
      active_ctx.RetireBelow(rstart, [&](const ActiveItem& c) {
        if (trace) {
          trace->Event("retire " + CtxLabel(c.iter, c.start, c.end));
        }
      });
      if (gallop && active_ctx.empty() && i >= ctx.size()) {
        // No context is active and none remains: every further
        // candidate is match-free.
        state->candidates_skipped += cand.size - j;
        break;
      }
      if (gallop && active_ctx.empty() && cand.end[j] < ctx[i].start) {
        // Expires before the next context arrives with nothing active:
        // dead on arrival.
        ++state->candidates_skipped;
        ++j;
        continue;
      }
      if (blocks && gallop && i >= ctx.size()) {
        if (const ActiveItem* c = active_ctx.Single()) {
          // Exhausted-context overlap tail with exactly one context
          // active: every candidate starting at or before c->end
          // overlaps it (its end is >= its start >= c->start), and the
          // first one past c->end retires c into the skip-everything
          // exit above — so the whole run emits one key per candidate,
          // blockwise. The active_cand inserts are skipped: with no
          // context rows left, nothing can ever read them again (only
          // the context branch probes or retires active_cand). The peak
          // counter replays what the per-row inserts would have
          // recorded.
          const size_t hi =
              simdk::UpperBoundI64(ops, cand.start, j, cand.size, c->end);
          if (hi > j) {
            const uint64_t key_base = static_cast<uint64_t>(c->iter) << 32;
            for (size_t k = j; k < hi; k += kBlockTileRows) {
              const size_t tile_end = std::min(hi, k + kBlockTileRows);
              if (tile_end < hi) {
                STANDOFF_PREFETCH(cand.start + tile_end);
                STANDOFF_PREFETCH(cand.id + tile_end);
              }
              const size_t base = state->keys.size();
              state->keys.resize(base + (tile_end - k));
              ops.emit_keys(cand.id + k, tile_end - k, key_base,
                            state->keys.data() + base);
              state->NoteBulkAppended(base);
            }
            state->matches_emitted += hi - j;
            state->candidates_scanned += hi - j;
            state->active_peak =
                std::max(state->active_peak,
                         1 + active_cand.size() + (hi - j));
            j = hi;
            continue;
          }
        }
      }
      ++state->candidates_scanned;
      if (trace) {
        trace->Event("read candidate " + RegionLabel(rstart, cand.end[j]) +
                     " (node " + std::to_string(cand.id[j]) + ") -> probe " +
                     std::to_string(active_ctx.size()) + " active");
      }
      const storage::Pre rid = cand.id[j];
      active_ctx.ForEachAll([&](const ActiveItem& c) {
        ++state->matches_emitted;
        if (state->emit_stamp[c.iter] != j) {
          state->emit_stamp[c.iter] = j;
          state->Emit(c.iter, rid);
          if (trace) {
            trace->Event("match (iter" + std::to_string(c.iter + 1) +
                         ", node " + std::to_string(rid) + ")");
          }
        }
      });
      active_cand.Insert(ActiveItem{cand.end[j], rstart, 0, rid});
      state->active_peak = std::max(
          state->active_peak, active_ctx.size() + active_cand.size());
      ++j;
    }
  }
}

/// Per-live-iteration complement of the packed select keys against the
/// sorted candidate universe, written straight into `out`.
void ComplementFromKeys(const std::vector<IterRegion>& context,
                        const std::vector<uint64_t>& keys,
                        storage::Span<storage::Pre> universe,
                        uint32_t iter_count, std::vector<uint8_t>* present,
                        std::vector<IterMatch>* out) {
  present->assign(iter_count, 0);
  for (const IterRegion& c : context) (*present)[c.iter] = 1;
  size_t m = 0;
  for (uint32_t iter = 0; iter < iter_count; ++iter) {
    while (m < keys.size() && (keys[m] >> 32) < iter) ++m;
    if (!(*present)[iter]) continue;
    size_t iter_end = m;
    while (iter_end < keys.size() && (keys[iter_end] >> 32) == iter) {
      ++iter_end;
    }
    size_t k = m;
    for (storage::Pre id : universe) {
      while (k < iter_end && static_cast<storage::Pre>(keys[k]) < id) ++k;
      if (k < iter_end && static_cast<storage::Pre>(keys[k]) == id) continue;
      out->push_back(IterMatch{iter, id});
    }
    m = iter_end;
  }
}

/// Context annotations flattened to iteration-0 rows: the single-call
/// form of the basic join.
std::vector<IterRegion> SingleIterationRows(
    const std::vector<AreaAnnotation>& context) {
  std::vector<IterRegion> rows;
  rows.reserve(context.size());
  for (const AreaAnnotation& a : context) {
    for (const Region& r : a.regions) {
      rows.push_back(IterRegion{0, r.start, r.end});
    }
  }
  return rows;
}

storage::Span<storage::Pre> NormalizeUniverse(
    storage::Span<storage::Pre> ids, std::vector<storage::Pre>* scratch) {
  if (std::is_sorted(ids.begin(), ids.end()) &&
      std::adjacent_find(ids.begin(), ids.end()) == ids.end()) {
    return ids;
  }
  scratch->assign(ids.begin(), ids.end());
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
  return storage::Span<storage::Pre>(*scratch);
}

void RadixSortKeys(std::vector<uint64_t>* keys, std::vector<uint64_t>* tmp) {
  const size_t n = keys->size();
  if (n < 2) return;
  if (n < 512) {
    // Below the histogram break-even an introsort of plain uint64s wins
    // (and, like the radix passes, allocates nothing).
    std::sort(keys->begin(), keys->end());
    return;
  }
  uint64_t all_or = 0;
  uint64_t all_and = ~uint64_t{0};
  for (uint64_t k : *keys) {
    all_or |= k;
    all_and &= k;
  }
  tmp->resize(n);
  uint64_t* src = keys->data();
  uint64_t* dst = tmp->data();
  for (int shift = 0; shift < 64; shift += 8) {
    // A byte on which every key agrees cannot affect the order; with
    // small iter counts and node ids the sort usually runs 2–4 passes.
    if ((((all_or ^ all_and) >> shift) & 0xFF) == 0) continue;
    size_t hist[256] = {0};
    for (size_t i = 0; i < n; ++i) ++hist[(src[i] >> shift) & 0xFF];
    size_t sum = 0;
    for (size_t b = 0; b < 256; ++b) {
      const size_t count = hist[b];
      hist[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) dst[hist[(src[i] >> shift) & 0xFF]++] = src[i];
    std::swap(src, dst);
  }
  if (src != keys->data()) std::copy(src, src + n, keys->data());
}

}  // namespace

void NaiveStandoffJoin(StandoffOp op,
                       const std::vector<AreaAnnotation>& context,
                       const std::vector<AreaAnnotation>& candidates,
                       std::vector<storage::Pre>* out) {
  out->clear();
  const bool narrow = IsNarrow(op);
  const bool reject = IsReject(op);
  for (const AreaAnnotation& cand : candidates) {
    bool matched = false;
    for (const AreaAnnotation& c : context) {
      for (const Region& a : c.regions) {
        for (const Region& b : cand.regions) {
          const bool hit = narrow
                               ? (a.start <= b.start && b.end <= a.end)
                               : (a.start <= b.end && b.start <= a.end);
          if (hit) {
            matched = true;
            break;
          }
        }
        if (matched) break;
      }
      if (matched) break;
    }
    if (matched != reject) out->push_back(cand.id);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

Status BasicStandoffJoinColumns(StandoffOp op,
                                const std::vector<AreaAnnotation>& context,
                                RegionColumns candidates,
                                storage::Span<storage::Pre> candidate_ids,
                                std::vector<storage::Pre>* out,
                                JoinOptions options) {
  const std::vector<IterRegion> rows = SingleIterationRows(context);
  std::vector<IterMatch> matches;
  STANDOFF_RETURN_IF_ERROR(LoopLiftedStandoffJoinColumns(
      op, rows, candidates, candidate_ids, /*iter_count=*/1, &matches,
      options));
  out->clear();
  out->reserve(matches.size());
  for (const IterMatch& m : matches) out->push_back(m.pre);
  return Status::OK();
}

Status LoopLiftedStandoffJoinColumns(
    StandoffOp op, const std::vector<IterRegion>& context, RegionColumns cand,
    storage::Span<storage::Pre> candidate_ids, uint32_t iter_count,
    std::vector<IterMatch>* out, JoinOptions options) {
  out->clear();
  for (const IterRegion& c : context) {
    if (c.iter >= iter_count) {
      return Status::Invalid("context row iteration " +
                             std::to_string(c.iter) + " >= iter_count " +
                             std::to_string(iter_count));
    }
    if (c.end < c.start) {
      return Status::Invalid("context region ends before it starts");
    }
  }
  // Views from RegionIndex / verified parents carry the sortedness
  // promise; anything else is checked here, once.
  if (!cand.start_sorted &&
      !std::is_sorted(cand.start, cand.start + cand.size)) {
    return Status::Invalid("candidates must be sorted by region start");
  }

  JoinArena local_arena;
  JoinArena* arena = options.arena != nullptr ? options.arena : &local_arena;

  arena->ctx.assign(context.begin(), context.end());
  std::vector<IterRegion>& ctx = arena->ctx;
  const auto ctx_less = [](const IterRegion& a, const IterRegion& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.end < b.end;
  };
  // Already-ordered input skips the sort.
  if (!std::is_sorted(ctx.begin(), ctx.end(), ctx_less)) {
    std::sort(ctx.begin(), ctx.end(), ctx_less);
  }

  PassState state(arena, iter_count, options.prune_contained_contexts);
  // Heuristic: output is commonly candidate-bounded; pre-sizing keeps the
  // merge loop free of reallocation in the typical case.
  state.keys.reserve(cand.size);
  // The trace contract is the complete per-step event stream — skipping
  // steps would skip events — so galloping is forced off under a sink.
  const bool gallop = options.gallop && options.trace == nullptr;
  const bool narrow = IsNarrow(op);
  // Resolve the dispatch level once per call. Scalar level keeps the
  // per-row loops (the baseline), any vector level additionally enables
  // the blockwise fast paths.
  const simd::Level level = simd::Resolve(options.simd);
  const simdk::KernelOps& ops = simdk::Ops(level);
  const bool blocks =
      level != simd::Level::kScalar && options.trace == nullptr;
  if (options.active_list == ActiveListKind::kSortedList) {
    if (narrow) {
      SelectNarrowPass<SortedEndList>(ctx, cand, gallop, ops, blocks, arena,
                                      &state, options.trace);
    } else {
      SelectWidePass<SortedEndList, SortedEndList>(
          ctx, cand, gallop, ops, blocks, arena, &state, options.trace);
    }
  } else {
    if (narrow) {
      SelectNarrowPass<EndHeap>(ctx, cand, gallop, ops, blocks, arena, &state,
                                options.trace);
    } else {
      SelectWidePass<EndHeap, EndHeap>(ctx, cand, gallop, ops, blocks, arena,
                                       &state, options.trace);
    }
  }
  if (options.stats) {
    options.stats->active_peak = state.active_peak;
    options.stats->contexts_skipped = state.contexts_skipped;
    options.stats->contexts_dead = state.contexts_dead;
    options.stats->candidates_scanned = state.candidates_scanned;
    options.stats->candidates_skipped = state.candidates_skipped;
    options.stats->matches_emitted = state.matches_emitted;
  }

  // Canonicalize to strictly increasing (iter, pre) keys. The merge
  // often emits in order already (single-iteration joins and contexts
  // whose iterations advance with their start, the Q2/document shape):
  // then this is a no-op, or a dedup at most. Out-of-order emission
  // takes the radix pass — never a comparison sort on large outputs.
  std::vector<uint64_t>& keys = arena->keys;
  if (!state.emitted_sorted) {
    RadixSortKeys(&keys, &arena->keys_tmp);
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  } else if (state.emitted_dup) {
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }

  if (!IsReject(op)) {
    out->resize(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      (*out)[i] = IterMatch{static_cast<uint32_t>(keys[i] >> 32),
                            static_cast<storage::Pre>(keys[i])};
    }
    return Status::OK();
  }

  // Reject: complement against the candidate universe per iteration.
  const storage::Span<storage::Pre> universe =
      NormalizeUniverse(candidate_ids, &arena->universe_scratch);
  ComplementFromKeys(ctx, keys, universe, iter_count, &arena->iter_present,
                     out);
  return Status::OK();
}

}  // namespace so
}  // namespace standoff
