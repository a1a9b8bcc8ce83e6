#include "benchmark/benchmark.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <regex>
#include <thread>

namespace benchmark {

namespace {

struct Flags {
  std::string filter;
  std::string format = "console";
  double min_time = 0.5;       // seconds, like gbench's default
  int64_t fixed_iterations = 0;  // from the "<N>x" min_time form
  int repetitions = 1;           // --benchmark_repetitions
  bool list_tests = false;
};

Flags& GetFlags() {
  static Flags flags;
  return flags;
}

std::vector<std::unique_ptr<internal::Benchmark>>& Registry() {
  static std::vector<std::unique_ptr<internal::Benchmark>> registry;
  return registry;
}

std::vector<std::pair<std::string, std::string>>& CustomContext() {
  static std::vector<std::pair<std::string, std::string>> context;
  return context;
}

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

const char* UnitName(TimeUnit unit) {
  switch (unit) {
    case kNanosecond: return "ns";
    case kMicrosecond: return "us";
    case kMillisecond: return "ms";
    case kSecond: return "s";
  }
  return "ns";
}

double UnitScale(TimeUnit unit) {  // seconds -> unit
  switch (unit) {
    case kNanosecond: return 1e9;
    case kMicrosecond: return 1e6;
    case kMillisecond: return 1e3;
    case kSecond: return 1.0;
  }
  return 1e9;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

struct RunResult {
  std::string name;
  std::string run_name;        // name without the aggregate suffix
  bool aggregate = false;      // the "<name>_mean" row of a repetition set
  int repetitions = 1;
  int repetition_index = 0;
  TimeUnit unit = kNanosecond;
  int64_t iterations = 0;
  double real_time = 0;  // per iteration, in `unit`
  double cpu_time = 0;
  UserCounters counters;
  double bytes_per_second = 0;  // 0 = the bench set no byte count
  int64_t items_processed = 0;
  bool error = false;
  std::string error_message;
};

}  // namespace

void State::StartTiming() {
  if (timing_) return;
  timing_ = true;
  cpu_start_ = CpuNow();
  wall_start_ = WallNow();
}

void State::StopTiming() {
  if (!timing_) return;
  wall_seconds_ = WallNow() - wall_start_;
  cpu_seconds_ = CpuNow() - cpu_start_;
  timing_ = false;
}

namespace internal {

Benchmark* RegisterBenchmarkInternal(const char* name, Function* fn) {
  auto bench = std::make_unique<Benchmark>();
  bench->name_ = name;
  bench->fn_ = fn;
  Registry().push_back(std::move(bench));
  return Registry().back().get();
}

}  // namespace internal

/// Drives (benchmark, args) variants: grow the iteration count until
/// the timed region covers min_time (gbench's adaptive loop), then
/// report per-iteration times.
class BenchmarkRunner {
 public:
  /// One result per variant in `group`. A lone variant runs on its
  /// own; a group (an Interleave() benchmark) shares one window.
  static std::vector<RunResult> Run(
      const internal::Benchmark& bench,
      const std::vector<std::vector<int64_t>>& group) {
    const Flags& flags = GetFlags();
    const double min_time =
        bench.min_time() > 0 ? bench.min_time() : flags.min_time;
    std::vector<RunResult> results;
    if (group.size() == 1) {
      results.push_back(
          Finish(bench, Calibrate(bench, group[0], min_time)));
      return results;
    }
    // Size every variant's slice, then alternate slices, reversing the
    // order each round so a linear drift lands on every variant alike.
    // `totals` sums each variant's slices (budget_ counts iterations).
    std::vector<int64_t> slice_iterations;
    std::vector<State> totals;
    for (const auto& args : group) {
      const State probe = Calibrate(bench, args, min_time / kSlices);
      slice_iterations.push_back(probe.budget_);
      totals.push_back(probe.skipped_ ? probe : State(args, 0));
    }
    for (int round = 0; round < kSlices; ++round) {
      for (size_t i = 0; i < group.size(); ++i) {
        const size_t v = round % 2 == 0 ? i : group.size() - 1 - i;
        if (totals[v].skipped_) continue;
        Add(&totals[v], Measure(bench, group[v], slice_iterations[v]));
      }
    }
    for (const State& total : totals) results.push_back(Finish(bench, total));
    return results;
  }

 private:
  static constexpr int kSlices = 64;  // per variant, in an interleaved group

  static State Measure(const internal::Benchmark& bench,
                       const std::vector<int64_t>& args, int64_t iters) {
    State state(args, iters);
    bench.fn()(state);
    state.StopTiming();  // no-op if the loop already stopped it
    return state;
  }

  /// The adaptive loop: the first run whose wall time covers
  /// `min_time` (or the fixed "<N>x" count).
  static State Calibrate(const internal::Benchmark& bench,
                         const std::vector<int64_t>& args, double min_time) {
    const Flags& flags = GetFlags();
    int64_t iters =
        flags.fixed_iterations > 0 ? flags.fixed_iterations : 1;
    for (;;) {
      State state = Measure(bench, args, iters);
      if (state.skipped_ || flags.fixed_iterations > 0 ||
          state.wall_seconds_ >= min_time || iters >= (int64_t{1} << 40)) {
        return state;
      }
      // Overshoot slightly (gbench multiplies by 1.4) so the next run
      // clears min_time in one go; growth is clamped to 10x.
      double multiplier =
          min_time * 1.4 / std::max(state.wall_seconds_, 1e-9);
      multiplier = std::min(10.0, std::max(2.0, multiplier));
      iters = static_cast<int64_t>(static_cast<double>(iters) * multiplier);
    }
  }

  /// Folds one slice into a variant's totals: iterations, times, byte
  /// and item counts and rate counters add up; other counters keep the
  /// latest slice's value.
  static void Add(State* total, const State& slice) {
    total->budget_ += slice.budget_;
    total->wall_seconds_ += slice.wall_seconds_;
    total->cpu_seconds_ += slice.cpu_seconds_;
    total->bytes_processed_ += slice.bytes_processed_;
    total->items_processed_ += slice.items_processed_;
    for (const auto& [key, counter] : slice.counters) {
      Counter& sum = total->counters[key];
      const bool rate = counter.flags & Counter::kIsRate;
      sum = Counter(rate ? sum.value + counter.value : counter.value,
                    counter.flags);
    }
    total->skipped_ = slice.skipped_;
    total->error_message_ = slice.error_message_;
  }

  static RunResult Finish(const internal::Benchmark& bench,
                          const State& state) {
    RunResult result;
    result.name = bench.name();
    for (int64_t arg : state.ranges_) result.name += "/" + std::to_string(arg);
    result.run_name = result.name;
    result.unit = bench.unit();
    if (state.skipped_) {
      result.error = true;
      result.error_message = state.error_message_;
      return result;
    }
    const double scale = UnitScale(bench.unit());
    const double denom = static_cast<double>(state.budget_);
    const double cpu = std::max(state.cpu_seconds_, 1e-12);
    result.iterations = state.budget_;
    result.real_time = state.wall_seconds_ / denom * scale;
    result.cpu_time = state.cpu_seconds_ / denom * scale;
    result.counters = state.counters;
    for (auto& entry : result.counters) {
      if (entry.second.flags & Counter::kIsRate) entry.second.value /= cpu;
    }
    if (state.bytes_processed_ > 0) {
      result.bytes_per_second =
          static_cast<double>(state.bytes_processed_) / cpu;
    }
    result.items_processed = state.items_processed_;
    return result;
  }
};

void Initialize(int* argc, char** argv) {
  Flags& flags = GetFlags();
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    auto value_of = [&arg](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
        return arg + len + 1;
      }
      return nullptr;
    };
    if (const char* v = value_of("--benchmark_filter")) {
      flags.filter = v;
    } else if (const char* v = value_of("--benchmark_format")) {
      flags.format = v;
    } else if (const char* v = value_of("--benchmark_min_time")) {
      // Accepts "0.25", "0.25s", and the fixed-iteration "100x" form.
      std::string text(v);
      if (!text.empty() && (text.back() == 'x' || text.back() == 'X')) {
        flags.fixed_iterations = std::atoll(text.c_str());
      } else {
        if (!text.empty() && text.back() == 's') text.pop_back();
        flags.min_time = std::atof(text.c_str());
      }
    } else if (const char* v = value_of("--benchmark_repetitions")) {
      flags.repetitions = std::max(1, std::atoi(v));
    } else if (std::strcmp(arg, "--benchmark_list_tests") == 0 ||
               std::strcmp(arg, "--benchmark_list_tests=true") == 0) {
      flags.list_tests = true;
    } else if (std::strncmp(arg, "--benchmark_", 12) == 0) {
      // Recognized family, unsupported knob: ignore rather than die,
      // so shared run_bench.sh invocations keep working.
    } else {
      argv[kept++] = argv[i];
      continue;
    }
  }
  for (int i = kept; i < *argc; ++i) argv[i] = nullptr;
  *argc = kept;
}

bool ReportUnrecognizedArguments(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::fprintf(stderr, "unrecognized argument: %s\n", argv[i]);
  }
  return argc > 1;
}

void AddCustomContext(const std::string& key, const std::string& value) {
  CustomContext().emplace_back(key, value);
}

namespace {

/// gbench's "<name>_mean" aggregate over one variant's repetitions:
/// per-iteration times and counters averaged, iterations = repetition
/// count. An errored repetition makes the aggregate an error row too.
RunResult MeanOf(const RunResult* reps, int count) {
  RunResult mean = reps[0];
  mean.name = reps[0].run_name + "_mean";
  mean.aggregate = true;
  mean.repetition_index = 0;
  mean.iterations = count;
  mean.real_time = 0;
  mean.cpu_time = 0;
  mean.bytes_per_second = 0;
  for (auto& entry : mean.counters) entry.second.value = 0;
  for (int i = 0; i < count; ++i) {
    mean.error = mean.error || reps[i].error;
    mean.real_time += reps[i].real_time / count;
    mean.cpu_time += reps[i].cpu_time / count;
    mean.bytes_per_second += reps[i].bytes_per_second / count;
    for (const auto& [key, counter] : reps[i].counters) {
      mean.counters[key].value += counter.value / count;
    }
  }
  return mean;
}

void PrintJson(const std::vector<RunResult>& results) {
#if defined(NDEBUG)
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  std::printf("{\n  \"context\": {\n");
  std::printf("    \"host_name\": \"%s\",\n", JsonEscape(host).c_str());
  std::printf("    \"num_cpus\": %u,\n",
              std::max(1u, std::thread::hardware_concurrency()));
  std::printf("    \"library_vendor\": \"standoff-minibench\",\n");
  for (const auto& [key, value] : CustomContext()) {
    std::printf("    \"%s\": \"%s\",\n", JsonEscape(key).c_str(),
                JsonEscape(value).c_str());
  }
  std::printf("    \"library_build_type\": \"%s\"\n", build_type);
  std::printf("  },\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& run = results[i];
    std::printf("    {\n");
    std::printf("      \"name\": \"%s\",\n", JsonEscape(run.name).c_str());
    std::printf("      \"run_name\": \"%s\",\n",
                JsonEscape(run.run_name).c_str());
    if (run.aggregate) {
      std::printf("      \"run_type\": \"aggregate\",\n");
      std::printf("      \"aggregate_name\": \"mean\",\n");
    } else {
      std::printf("      \"run_type\": \"iteration\",\n");
    }
    std::printf("      \"repetitions\": %d,\n", run.repetitions);
    std::printf("      \"repetition_index\": %d,\n", run.repetition_index);
    std::printf("      \"threads\": 1,\n");
    if (run.error) {
      std::printf("      \"error_occurred\": true,\n");
      std::printf("      \"error_message\": \"%s\",\n",
                  JsonEscape(run.error_message).c_str());
    }
    std::printf("      \"iterations\": %lld,\n",
                static_cast<long long>(run.iterations));
    std::printf("      \"real_time\": %.6g,\n", run.real_time);
    std::printf("      \"cpu_time\": %.6g,\n", run.cpu_time);
    for (const auto& [key, counter] : run.counters) {
      std::printf("      \"%s\": %.6g,\n", JsonEscape(key).c_str(),
                  counter.value);
    }
    if (run.bytes_per_second > 0) {
      std::printf("      \"bytes_per_second\": %.6g,\n",
                  run.bytes_per_second);
    }
    std::printf("      \"time_unit\": \"%s\"\n", UnitName(run.unit));
    std::printf("    }%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
}

void PrintConsole(const std::vector<RunResult>& results) {
  std::printf("%-50s %15s %15s %12s\n", "Benchmark", "Time", "CPU",
              "Iterations");
  for (const RunResult& run : results) {
    if (run.error) {
      std::printf("%-50s ERROR: %s\n", run.name.c_str(),
                  run.error_message.c_str());
      continue;
    }
    std::printf("%-50s %12.1f %s %12.1f %s %12lld", run.name.c_str(),
                run.real_time, UnitName(run.unit), run.cpu_time,
                UnitName(run.unit), static_cast<long long>(run.iterations));
    // User counters follow the timings, as google-benchmark prints them.
    for (const auto& [key, counter] : run.counters) {
      std::printf(" %s=%.4g", key.c_str(), counter.value);
    }
    std::printf("\n");
  }
}

}  // namespace

size_t RunSpecifiedBenchmarks() {
  const Flags& flags = GetFlags();
  std::regex filter;
  bool have_filter = false;
  if (!flags.filter.empty()) {
    try {
      filter = std::regex(flags.filter);
      have_filter = true;
    } catch (const std::regex_error&) {
      std::fprintf(stderr, "bad --benchmark_filter regex: %s\n",
                   flags.filter.c_str());
      return 0;
    }
  }

  std::vector<RunResult> results;
  size_t matched = 0;
  for (const auto& bench : Registry()) {
    std::vector<std::vector<int64_t>> variants = bench->arg_lists();
    if (variants.empty()) variants.push_back({});
    std::vector<std::vector<int64_t>> selected;
    for (const auto& args : variants) {
      std::string name = bench->name();
      for (int64_t arg : args) name += "/" + std::to_string(arg);
      if (have_filter && !std::regex_search(name, filter)) continue;
      ++matched;
      if (flags.list_tests) {
        std::printf("%s\n", name.c_str());
        continue;
      }
      std::fprintf(stderr, "running %s\n", name.c_str());
      selected.push_back(args);
    }
    // Interleaved variants share one window (a fixed "<N>x" count runs
    // exactly N iterations per variant, so it stays sequential).
    std::vector<std::vector<std::vector<int64_t>>> groups;
    if (bench->interleaved() && flags.fixed_iterations == 0 &&
        !selected.empty()) {
      groups.push_back(selected);
    } else {
      for (const auto& args : selected) groups.push_back({args});
    }
    for (const auto& group : groups) {
      std::vector<std::vector<RunResult>> reps(group.size());
      for (int rep = 0; rep < flags.repetitions; ++rep) {
        std::vector<RunResult> runs = BenchmarkRunner::Run(*bench, group);
        for (size_t v = 0; v < group.size(); ++v) {
          runs[v].repetitions = flags.repetitions;
          runs[v].repetition_index = rep;
          reps[v].push_back(std::move(runs[v]));
        }
      }
      for (const auto& variant_reps : reps) {
        results.insert(results.end(), variant_reps.begin(),
                       variant_reps.end());
        if (flags.repetitions > 1) {
          results.push_back(MeanOf(variant_reps.data(), flags.repetitions));
        }
      }
    }
  }
  if (flags.list_tests) return matched;
  if (matched == 0 && have_filter) {
    std::fprintf(stderr,
                 "Failed to match any benchmarks against regex: %s\n",
                 flags.filter.c_str());
    return 0;
  }
  if (flags.format == "json") {
    PrintJson(results);
  } else {
    PrintConsole(results);
  }
  return matched;
}

void Shutdown() {}

}  // namespace benchmark
