// Branch-free / SIMD variants of the merge-kernel primitives, behind a
// per-level dispatch table (common/simd.h picks the level at runtime).
//
// Contract, shared by every level:
//   - Exact drop-ins: for any input — n == 0, n not a multiple of the
//     lane width, pointers of any alignment (Slice() sub-views land
//     mid-array) — each function returns byte-identical results to the
//     scalar implementation. Vector bodies use unaligned loads and a
//     scalar tail over the last n % lanes rows.
//   - Sorted-input helpers (LowerBound/UpperBound) are defined against
//     std::lower_bound/std::upper_bound over the same range.
//   - compact_le_i64 writes at most one element past its last kept slot
//     while compacting (branch-free overwrite), so `out` must have room
//     for n entries even when fewer match.
//
// Adding a kernel variant = one function per level here, one slot in
// KernelOps, and wiring in the Ops() tables in simd_kernels.cc; the
// differential tests sweep every level automatically.
#ifndef STANDOFF_STANDOFF_SIMD_KERNELS_H_
#define STANDOFF_STANDOFF_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

namespace standoff {
namespace so {
namespace simdk {

/// One dispatchable primitive set. All function pointers are non-null
/// in every table returned by Ops().
struct KernelOps {
  /// Number of values < v in a[0, n). On a sorted range this IS the
  /// lower-bound offset; intended for short ranges (the binary-search
  /// tail), so it runs unconditionally over all n rows.
  size_t (*count_less_i64)(const int64_t* a, size_t n, int64_t v);

  /// Blockwise containment test + mask compaction: for every k in
  /// [0, n) with end[k] <= bound, appends key_base | id[k] to out in
  /// k order. Returns the number written. `out` needs room for n.
  size_t (*compact_le_i64)(const int64_t* end, const uint32_t* id, size_t n,
                           int64_t bound, uint64_t key_base, uint64_t* out);

  /// Unconditional key materialization: out[k] = key_base | id[k] for
  /// every k in [0, n) (the wide pass's all-overlap runs).
  void (*emit_keys)(const uint32_t* id, size_t n, uint64_t key_base,
                    uint64_t* out);

  const char* name;
};

/// The dispatch table for a RESOLVED level (pass simd::Resolve(...)'s
/// result, never kAuto). Tables are static; the reference stays valid
/// for the process lifetime.
const KernelOps& Ops(simd::Level level);

/// Search tail length: binary search narrows to at most this many rows,
/// then one branch-free count_less pass finishes the job.
inline constexpr size_t kSearchTail = 32;

/// First index in [lo, hi) with a[i] >= v. Identical to
/// std::lower_bound(a + lo, a + hi, v) - a; requires a[lo, hi) sorted.
inline size_t LowerBoundI64(const KernelOps& ops, const int64_t* a, size_t lo,
                            size_t hi, int64_t v) {
  while (hi - lo > kSearchTail) {
    const size_t mid = lo + (hi - lo) / 2;
    if (a[mid] < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + ops.count_less_i64(a + lo, hi - lo, v);
}

/// First index in [lo, hi) with a[i] > v (std::upper_bound).
inline size_t UpperBoundI64(const KernelOps& ops, const int64_t* a, size_t lo,
                            size_t hi, int64_t v) {
  // upper_bound(v) == lower_bound(v + 1) for integers; v == INT64_MAX
  // would wrap, but no value can exceed it either, so the answer is hi.
  if (v == INT64_MAX) return hi;
  return LowerBoundI64(ops, a, lo, hi, v + 1);
}

}  // namespace simdk
}  // namespace so
}  // namespace standoff

#endif  // STANDOFF_STANDOFF_SIMD_KERNELS_H_
