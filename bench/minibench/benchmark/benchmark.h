// minibench: a bundled, dependency-free implementation of the subset of
// the google-benchmark API this repo's benches use. It exists for
// offline builds: when CMake cannot fetch the real google-benchmark
// sources (and the distro package is a debug build that would mislabel
// every timing), the benches link against this instead. Because it is
// compiled with the project's CMAKE_BUILD_TYPE, the JSON context's
// library_build_type is truthful — "release" in a Release build — and
// the context also carries library_vendor=standoff-minibench so results
// files always disclose which harness produced them.
//
// Semantics follow google-benchmark where the repo's tooling depends on
// them: adaptive iteration scaling to --benchmark_min_time (suffix and
// bare forms, plus the "<N>x" fixed-iteration form), per-iteration
// real_time/cpu_time in the Unit() time unit, kIsRate counters divided
// by cpu seconds, gbench-shaped JSON (context + benchmarks array) under
// --benchmark_format=json, regex --benchmark_filter, and
// --benchmark_repetitions with "<name>_mean" aggregates. One extension
// gbench lacks per benchmark: Interleave(), which measures a
// benchmark's variants in alternating slices of one window.
//
// Not implemented (nothing in bench/ uses them): threads, manual
// timing, PauseTiming/ResumeTiming, complexity, templated fixtures.
#ifndef STANDOFF_BENCH_MINIBENCH_BENCHMARK_H_
#define STANDOFF_BENCH_MINIBENCH_BENCHMARK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace benchmark {

enum TimeUnit { kNanosecond, kMicrosecond, kMillisecond, kSecond };

class Counter {
 public:
  enum Flags {
    kDefaults = 0,
    kIsRate = 1 << 0,  // report value / cpu seconds
  };
  Counter(double v = 0.0, Flags f = kDefaults)  // NOLINT: implicit like gbench
      : value(v), flags(f) {}

  double value;
  Flags flags;
};

using UserCounters = std::map<std::string, Counter>;

class State {
 public:
  /// The `for (auto _ : state)` protocol: begin() starts the timers,
  /// and the iterator's exhaustion (or SkipWithError) stops them.
  class Iterator {
   public:
    Iterator(State* parent, int64_t remaining)
        : parent_(parent), remaining_(remaining) {}
    bool operator!=(const Iterator&) {
      if (remaining_ != 0 && !parent_->skipped_) return true;
      parent_->StopTiming();
      return false;
    }
    Iterator& operator++() {
      --remaining_;
      return *this;
    }
    // Non-trivial so `for (auto _ : state)` never warns -Wunused-variable.
    struct Value {
      Value() {}
      ~Value() {}
    };
    Value operator*() const { return Value(); }

   private:
    State* parent_;
    int64_t remaining_;
  };

  Iterator begin() {
    StartTiming();
    return Iterator(this, budget_);
  }
  Iterator end() { return Iterator(this, 0); }

  int64_t range(size_t index = 0) const {
    return index < ranges_.size() ? ranges_[index] : 0;
  }
  int64_t iterations() const { return budget_; }
  void SkipWithError(const char* message) {
    skipped_ = true;
    error_message_ = message;
  }
  void SetBytesProcessed(int64_t bytes) { bytes_processed_ = bytes; }
  void SetItemsProcessed(int64_t items) { items_processed_ = items; }

  UserCounters counters;

 private:
  friend class BenchmarkRunner;
  State(std::vector<int64_t> ranges, int64_t budget)
      : ranges_(std::move(ranges)), budget_(budget) {}

  void StartTiming();
  void StopTiming();

  std::vector<int64_t> ranges_;
  int64_t budget_ = 1;
  bool skipped_ = false;
  std::string error_message_;
  int64_t bytes_processed_ = 0;
  int64_t items_processed_ = 0;
  bool timing_ = false;
  double wall_start_ = 0, wall_seconds_ = 0;
  double cpu_start_ = 0, cpu_seconds_ = 0;
};

using Function = void(State&);

class BenchmarkRunner;

namespace internal {

/// One registered benchmark: the function plus every ->Args() variant.
class Benchmark {
 public:
  Benchmark* Arg(int64_t value) { return Args({value}); }
  Benchmark* Args(const std::vector<int64_t>& values) {
    arg_lists_.push_back(values);
    return this;
  }
  Benchmark* Unit(TimeUnit unit) {
    unit_ = unit;
    return this;
  }
  /// Per-benchmark floor on the measured window; overrides the
  /// --benchmark_min_time flag (gbench semantics). For ratio-gated
  /// pairs whose per-iteration cost is large enough that a short flag
  /// value would leave single-digit iteration counts.
  Benchmark* MinTime(double seconds) {
    min_time_ = seconds;
    return this;
  }
  /// Measures all of this benchmark's arg variants in alternating
  /// slices of one shared window instead of one after another, so
  /// host-speed drift lands on every variant alike. For variants a
  /// within-run ratio gate compares.
  Benchmark* Interleave() {
    interleaved_ = true;
    return this;
  }
  Benchmark* Apply(void (*custom)(Benchmark*)) {
    custom(this);
    return this;
  }

  const std::string& name() const { return name_; }
  Function* fn() const { return fn_; }
  TimeUnit unit() const { return unit_; }
  double min_time() const { return min_time_; }
  bool interleaved() const { return interleaved_; }
  const std::vector<std::vector<int64_t>>& arg_lists() const {
    return arg_lists_;
  }

 private:
  friend class ::benchmark::BenchmarkRunner;
  friend Benchmark* RegisterBenchmarkInternal(const char* name, Function* fn);
  std::string name_;
  Function* fn_ = nullptr;
  TimeUnit unit_ = kNanosecond;
  double min_time_ = 0;  // 0 = use the --benchmark_min_time flag
  bool interleaved_ = false;
  std::vector<std::vector<int64_t>> arg_lists_;
};

Benchmark* RegisterBenchmarkInternal(const char* name, Function* fn);

}  // namespace internal

/// Strips recognized --benchmark_* flags out of argv (like gbench).
void Initialize(int* argc, char** argv);
/// True (and complains on stderr) when non-flag arguments remain.
bool ReportUnrecognizedArguments(int argc, char** argv);
size_t RunSpecifiedBenchmarks();
void Shutdown();
void AddCustomContext(const std::string& key, const std::string& value);

#if defined(__GNUC__) || defined(__clang__)
template <class T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}
template <class T>
inline void DoNotOptimize(T& value) {
  asm volatile("" : "+r,m"(value) : : "memory");
}
#else
template <class T>
inline void DoNotOptimize(T const& value) {
  volatile const char* sink = reinterpret_cast<volatile const char*>(&value);
  (void)sink;
}
#endif

}  // namespace benchmark

#define MINIBENCH_CONCAT2(a, b) a##b
#define MINIBENCH_CONCAT(a, b) MINIBENCH_CONCAT2(a, b)
#define BENCHMARK(fn)                                             \
  static ::benchmark::internal::Benchmark* MINIBENCH_CONCAT(      \
      minibench_reg_, __LINE__) =                                 \
      ::benchmark::internal::RegisterBenchmarkInternal(#fn, fn)

#define BENCHMARK_MAIN()                                          \
  int main(int argc, char** argv) {                               \
    ::benchmark::Initialize(&argc, argv);                         \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {   \
      return 1;                                                   \
    }                                                             \
    ::benchmark::RunSpecifiedBenchmarks();                        \
    ::benchmark::Shutdown();                                      \
    return 0;                                                     \
  }                                                               \
  int main(int, char**)

#endif  // STANDOFF_BENCH_MINIBENCH_BENCHMARK_H_
