// Shared workload shapes for the skew/sparsity benchmarks: candidate
// region distributions (uniform, clustered, Zipf-skewed) crossed with
// context coverage densities. Seeded and deterministic, so numbers are
// comparable run over run and PR over PR.
#ifndef STANDOFF_BENCH_SKEW_WORKLOADS_H_
#define STANDOFF_BENCH_SKEW_WORKLOADS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "standoff/merge_join.h"
#include "standoff/region_index.h"

namespace standoff {
namespace benchdata {

inline constexpr int64_t kSkewUniverse = 8000000;

enum class CandidateShape {
  kUniform = 0,    // starts uniform over the universe
  kClustered = 1,  // 64 tight clusters, empty gulfs between them
  kZipf = 2,       // power-law pile-up near the universe origin
};

inline const char* CandidateShapeName(CandidateShape shape) {
  switch (shape) {
    case CandidateShape::kUniform: return "uniform";
    case CandidateShape::kClustered: return "clustered";
    case CandidateShape::kZipf: return "zipf";
  }
  return "?";
}

/// `coverage_permille` controls the context/candidate density ratio:
/// the fraction of the universe (in 1/1000ths) covered by context
/// regions. 10 = sparse (1%), 200 = medium, 1000 = dense tiling.
struct SkewWorkload {
  so::RegionIndex index;
  std::vector<storage::Pre> candidate_ids;
  std::vector<so::IterRegion> context;
  uint32_t iter_count = 0;
};

inline SkewWorkload MakeSkewWorkload(CandidateShape shape, size_t candidates,
                                     uint32_t iters,
                                     int64_t coverage_permille) {
  Rng rng(0xC0FFEE ^ (static_cast<uint64_t>(shape) << 8) ^
          (static_cast<uint64_t>(coverage_permille) << 16));
  std::vector<so::RegionEntry> entries;
  entries.reserve(candidates);
  for (size_t i = 0; i < candidates; ++i) {
    int64_t start = 0;
    switch (shape) {
      case CandidateShape::kUniform:
        start = rng.UniformRange(0, kSkewUniverse);
        break;
      case CandidateShape::kClustered: {
        // 64 clusters of span universe/1000; centers are seeded uniform.
        const int64_t cluster = rng.UniformRange(0, 63);
        Rng center_rng(31 * static_cast<uint64_t>(cluster) + 7);
        const int64_t center =
            center_rng.UniformRange(0, kSkewUniverse - kSkewUniverse / 1000);
        start = center + rng.UniformRange(0, kSkewUniverse / 1000);
        break;
      }
      case CandidateShape::kZipf: {
        // start = U * u^4: ~50% of regions land in the first 6% of the
        // universe, the tail thins out polynomially.
        const double u = rng.NextDouble();
        start = static_cast<int64_t>(
            static_cast<double>(kSkewUniverse - 40) * u * u * u * u);
        break;
      }
    }
    const int64_t end = start + rng.UniformRange(0, 30);
    entries.push_back(
        so::RegionEntry{start, end, static_cast<storage::Pre>(i + 2)});
  }

  SkewWorkload w;
  w.index = so::RegionIndex::FromEntries(std::move(entries));
  const storage::Span<storage::Pre> ann_ids = w.index.annotated_ids();
  w.candidate_ids.assign(ann_ids.begin(), ann_ids.end());
  w.iter_count = iters;
  // Context regions tile the covered prefix-of-universe span per
  // iteration: total coverage = universe * coverage_permille / 1000,
  // split evenly. Sparse settings leave long candidate runs with no
  // context at all — the shape galloping exploits.
  const int64_t covered =
      kSkewUniverse * std::min<int64_t>(coverage_permille, 1000) / 1000;
  const int64_t width =
      std::max<int64_t>(covered / std::max<uint32_t>(iters, 1), 1);
  for (uint32_t it = 0; it < iters; ++it) {
    const int64_t start = static_cast<int64_t>(it) * width;
    w.context.push_back(so::IterRegion{it, start, start + width});
  }
  return w;
}

}  // namespace benchdata
}  // namespace standoff

#endif  // STANDOFF_BENCH_SKEW_WORKLOADS_H_
