// Shared pieces of the server benchmark program: metric collection,
// order statistics, corpus generation with spans, and the inputs the
// traced per-layer passes need.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/bootstrap.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Nearest-rank percentile (q in [0, 1]) of unsorted samples; 0 when
/// empty.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t index = std::min(
      samples.size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples.size())));
  return samples[index];
}

inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Generates the corpus documents one at a time exactly as
/// server::BuildXmarkSnapshot does, calling fn(name, xml, blob) for
/// each (blob empty for nested documents). Spans: xmark.generate,
/// xmark.to_standoff, tagged with `request`.
standoff::Status GenerateCorpus(
    const standoff::server::BootstrapOptions& options, TraceBuffer* trace,
    uint64_t request,
    const std::function<standoff::Status(std::string, std::string,
                                         std::string)>& fn);

/// Everything the traced per-layer passes read from the main run.
struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  standoff::server::BootstrapOptions corpus;
  std::string snapshot_path;  // the served corpus
  std::string work_dir;
  const std::vector<Shape>* shapes = nullptr;
  const std::vector<uint32_t>* write_targets = nullptr;
  int64_t extent = 0;
  /// Live delta footprint (rows + tombstones) sampled while the
  /// workload wrote; its median sizes the merge pass.
  std::vector<double> live_delta_samples;
  /// WAL directory holding exactly the recovery phase's N writes.
  std::string recovery_wal_dir;
  uint64_t recovery_writes = 0;
};

/// The traced per-layer passes (xmark/storage, standoff, xquery,
/// server.query_text) over the run's seeded inputs. Appends every
/// per-layer metric those passes own to `out`.
standoff::Status RunLayerPasses(const LayerInputs& in, Trace* trace,
                                Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
