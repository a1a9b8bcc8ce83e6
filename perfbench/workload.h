// Workload definitions for the server benchmark: corpus sizes, the
// read-query shapes each workload cycles or samples, and the seeded
// write stream. Everything here is derived from the benchmark seed;
// the program under test only ever sees the generated inputs (corpus
// seed, query texts, write frames).
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "server/bootstrap.h"
#include "storage/store_view.h"

namespace perfbench {

/// One distinct read query as sent over the wire.
struct Shape {
  std::string text;
  bool flwor = false;
  /// The chain's document (FLWOR paths bind document 0).
  uint32_t doc = 0;
  /// True when the write stream can change this shape's result (its
  /// context or a step matches any annotated element, or names a
  /// write-target element). Such replies cannot be compared against a
  /// fixed reference while writes are in flight.
  bool write_sensitive = false;
};

struct WriteOp {
  bool insert = true;
  uint32_t id = 0;  // element of document 0
  int64_t start = 0;
  int64_t end = 0;
};

struct Op {
  enum class Kind { kRead, kWrite };
  Kind kind = Kind::kRead;
  uint32_t shape = 0;  // index into the shape list (reads)
  WriteOp write;       // writes
};

struct WorkloadSpec {
  std::string name;
  bool tiny = false;  // smoke-test sizes
  double scale = 0.005;
  uint32_t documents = 4;
  uint32_t shards = 2;
  uint32_t connections = 2;
  uint32_t pool_workers = 2;
  /// Scan workloads sample a large seeded shape universe uniformly;
  /// the others cycle a small fixed mix.
  bool scan = false;
  /// One write every `write_every` operations per connection (0 = a
  /// read-only window).
  uint32_t write_every = 0;
  uint64_t compact_threshold = 0;
  double wal_sync_interval_ms = 1000;
  double warmup_seconds = 1.0;
  /// Setup (bootstrap + server start) repetitions; setup_s is their
  /// median.
  int setup_reps = 3;
  /// Recovery phase: N acknowledged writes in the WAL, K restarts;
  /// repeated `recovery_rounds` times with the same writes.
  int recovery_writes = 1000;
  int recovery_restarts = 5;
  int recovery_rounds = 1;
};

/// The named workload, or kInvalidArgument. `tiny` shrinks corpus and
/// repetitions for the benchmark's own smoke test.
standoff::StatusOr<WorkloadSpec> MakeSpec(const std::string& name, bool tiny);

/// Corpus options for a benchmark seed: same seed, same corpus bytes.
standoff::server::BootstrapOptions CorpusOptions(const WorkloadSpec& spec,
                                                 uint64_t seed);

/// The distinct read shapes of the workload over `store` (the opened
/// corpus). Scan workloads enumerate every two-step select-narrow chain
/// along an ancestor name path that occurs in a StandOff document, so
/// every shape matches something by construction.
std::vector<Shape> BuildShapes(const WorkloadSpec& spec,
                               const standoff::storage::StoreView& store);

/// Element ids of document 0 the write stream targets: elements whose
/// names no fixed-mix query mentions.
std::vector<uint32_t> WriteTargets(const standoff::storage::StoreView& store);

/// Upper bound of region offsets in document 0 (the blob length).
int64_t RegionExtent(const standoff::storage::StoreView& store);

/// A connection's endless seeded operation stream.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, const std::vector<Shape>& shapes,
           const std::vector<uint32_t>& write_targets, int64_t extent,
           uint64_t seed);
  Op Next();
  /// A write op regardless of the workload's write ratio (recovery
  /// phase).
  WriteOp NextWrite();

 private:
  uint32_t NextShape();

  const WorkloadSpec& spec_;
  const std::vector<uint32_t>& targets_;
  int64_t extent_;
  standoff::Rng rng_;
  std::vector<uint32_t> cycle_;  // one pass over the fixed mix
  std::vector<uint32_t> chains_, flwors_;  // scan sampling pools
  uint64_t index_ = 0;  // operations handed out
  uint64_t reads_ = 0;  // reads handed out
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
