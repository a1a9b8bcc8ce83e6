// The brute-force StandOff oracle: O(|context| * |candidates|) direct
// evaluation of the axis semantics, with none of the kernels' merge,
// active-list, pruning, or dedup machinery. Every production kernel —
// serial or parallel, any axis, any thread/shard configuration — must
// reproduce its output byte for byte.
#ifndef STANDOFF_TESTS_ORACLE_H_
#define STANDOFF_TESTS_ORACLE_H_

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "standoff/merge_join.h"

namespace test {

/// The AoS rows of a columnar region view, copied out in view order —
/// what the oracle and the readable row assertions consume.
inline std::vector<standoff::so::RegionEntry> Rows(
    standoff::so::RegionColumns cols) {
  std::vector<standoff::so::RegionEntry> rows(cols.size);
  for (size_t i = 0; i < cols.size; ++i) rows[i] = cols.row(i);
  return rows;
}

/// All entries of `index`, sorted by (start, end, id).
inline std::vector<standoff::so::RegionEntry> Rows(
    const standoff::so::RegionIndex& index) {
  return Rows(index.columns());
}

/// All (iter, pre) matches of `op`, sorted by (iter, pre) and
/// duplicate-free — the kernels' canonical output order. `universe` is
/// the candidate universe the reject- operators complement against
/// (sorted or not, duplicates tolerated).
inline std::vector<standoff::so::IterMatch> OracleStandoffJoin(
    standoff::so::StandoffOp op,
    const std::vector<standoff::so::IterRegion>& context,
    const std::vector<standoff::so::RegionEntry>& candidates,
    standoff::storage::Span<standoff::storage::Pre> universe,
    uint32_t iter_count) {
  using standoff::so::StandoffOp;
  const bool narrow = op == StandoffOp::kSelectNarrow ||
                      op == StandoffOp::kRejectNarrow;
  const bool reject = op == StandoffOp::kRejectNarrow ||
                      op == StandoffOp::kRejectWide;

  std::vector<uint8_t> present(iter_count, 0);
  std::set<std::pair<uint32_t, standoff::storage::Pre>> hits;
  for (const standoff::so::IterRegion& c : context) {
    present[c.iter] = 1;
    for (const standoff::so::RegionEntry& r : candidates) {
      const bool hit = narrow ? (c.start <= r.start && r.end <= c.end)
                              : (c.start <= r.end && r.start <= c.end);
      if (hit) hits.emplace(c.iter, r.id);
    }
  }

  std::vector<standoff::so::IterMatch> out;
  if (!reject) {
    for (const auto& [iter, pre] : hits) {
      out.push_back(standoff::so::IterMatch{iter, pre});
    }
    return out;
  }
  std::vector<standoff::storage::Pre> ids(universe.begin(), universe.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (uint32_t iter = 0; iter < iter_count; ++iter) {
    if (!present[iter]) continue;
    for (standoff::storage::Pre id : ids) {
      if (!hits.count({iter, id})) {
        out.push_back(standoff::so::IterMatch{iter, id});
      }
    }
  }
  return out;
}

}  // namespace test

#endif  // STANDOFF_TESTS_ORACLE_H_
