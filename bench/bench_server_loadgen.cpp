// Open-loop load generator for the StandOff query server, with latency
// SLO reporting.
//
// Arrivals are scheduled on a fixed clock (arrival i fires at
// start + i/rate) independent of completions, and each query's latency
// is measured FROM ITS SCHEDULED ARRIVAL — so server-side queueing
// shows up in the percentiles instead of being hidden by a stalled
// closed-loop client (the coordinated-omission correction).
//
// The query mix cycles chain-query shapes and the XMark standoff FLWOR
// queries (Figure 6) over a deterministic bootstrap corpus, echoing the
// shapes bench_chain_planner and bench_skew_sparsity measure in
// isolation.
//
// Output: a google-benchmark-compatible JSON document on stdout —
// run_bench.sh merges it into BENCH_results.json and check_regression
// gates the latency_mean / latency_p99 rows like any other bench. The
// context block stamps library_build_type from THIS binary's NDEBUG
// state, so the run_bench.sh/check_regression debug rejection applies
// to the loadgen too. All --benchmark_* flags are accepted and ignored
// (run_bench.sh passes them to every bench).
//
// Modes:
//   default            bootstrap a corpus, serve it in-process, drive it
//   --snapshot=PATH    serve an existing snapshot in-process
//   --connect=PORT     drive an externally started standoff_server
//   --swap             hot-swap to a second snapshot at half-duration
//                      (in-process: a second bootstrapped file;
//                      --connect: requires --swap-path=PATH)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "server/bootstrap.h"
#include "server/client.h"
#include "server/server.h"
#include "xmark/queries.h"

namespace {

using standoff::server::BootstrapOptions;
using standoff::server::BuildXmarkSnapshot;
using standoff::server::Client;
using standoff::server::Server;
using standoff::server::ServerConfig;

using Clock = std::chrono::steady_clock;

struct Options {
  std::string snapshot;
  int connect_port = -1;
  uint32_t connections = 4;
  double rate = 150.0;       // scheduled arrivals per second
  double duration = 2.0;     // seconds
  uint32_t queue = 8;        // in-process admission capacity
  uint32_t workers = 2;      // in-process compaction pool workers
  uint32_t retry_attempts = 4;  // Query attempts per arrival (1 = off)
  bool swap = false;
  std::string swap_path;     // --connect swap target
  double scale = 0.02;       // bootstrap corpus scale
  uint32_t docs = 4;
  uint32_t shards = 2;
};

bool TakeFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

/// Chain shapes over the standoff XMark documents (doc 0 is always a
/// StandOff transform): a selective two-layer probe, a three-layer
/// chain, and an any-context sweep — the planner-relevant spread. Every
/// name occurs in the generated corpus; the run fails if a shape
/// answers no rows, so a shape cannot silently time empty results.
const char* const kChainShapes[] = {
    "chain doc=0 ctx=item steps=select-narrow:description",
    "chain doc=0 ctx=open_auction "
    "steps=select-narrow:bidder,select-narrow:increase",
    "chain doc=0 ctx=* steps=select-narrow:emailaddress",
};
constexpr size_t kChainShapeCount = std::size(kChainShapes);

/// Ping round trips timed before the drive.
constexpr size_t kPingRounds = 1000;

/// The chain shapes first, then the Figure 6 FLWOR queries.
std::vector<std::string> BuildQueryMix() {
  std::vector<std::string> mix(std::begin(kChainShapes),
                               std::end(kChainShapes));
  for (const auto& query : standoff::xmark::BenchmarkQueries()) {
    mix.push_back(std::string("flwor ") + query.standoff);
  }
  return mix;
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t index = std::min(
      sorted.size() - 1, static_cast<size_t>(q * static_cast<double>(
                                                     sorted.size())));
  return sorted[index];
}

struct RunTotals {
  std::vector<double> latencies_us;  // admitted queries only
  std::vector<uint64_t> rows_by_shape;  // indexed like the query mix
  uint64_t ok = 0;
  uint64_t busy = 0;     // still busy after the retry budget
  uint64_t retries = 0;  // extra attempts spent on transient busy
  uint64_t errors = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      continue;  // run_bench.sh passes gbench flags to every binary
    } else if (TakeFlag(argv[i], "--snapshot", &value)) {
      opt.snapshot = value;
    } else if (TakeFlag(argv[i], "--connect", &value)) {
      opt.connect_port = std::atoi(value.c_str());
    } else if (TakeFlag(argv[i], "--connections", &value)) {
      opt.connections = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (TakeFlag(argv[i], "--rate", &value)) {
      opt.rate = std::atof(value.c_str());
    } else if (TakeFlag(argv[i], "--duration", &value)) {
      opt.duration = std::atof(value.c_str());
    } else if (TakeFlag(argv[i], "--queue", &value)) {
      opt.queue = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (TakeFlag(argv[i], "--workers", &value)) {
      opt.workers = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (TakeFlag(argv[i], "--retry-attempts", &value)) {
      opt.retry_attempts = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (std::strcmp(argv[i], "--swap") == 0) {
      opt.swap = true;
    } else if (TakeFlag(argv[i], "--swap-path", &value)) {
      opt.swap_path = value;
      opt.swap = true;
    } else if (TakeFlag(argv[i], "--scale", &value)) {
      opt.scale = std::atof(value.c_str());
    } else if (TakeFlag(argv[i], "--docs", &value)) {
      opt.docs = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (TakeFlag(argv[i], "--shards", &value)) {
      opt.shards = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.connections == 0 || opt.rate <= 0 || opt.duration <= 0) {
    std::fprintf(stderr, "need positive --connections/--rate/--duration\n");
    return 2;
  }

  // --- Stand up (or point at) the server. -------------------------------
  std::unique_ptr<Server> in_process;
  std::string cleanup_a, cleanup_b;
  std::string swap_target = opt.swap_path;
  uint16_t port = 0;
  if (opt.connect_port >= 0) {
    port = static_cast<uint16_t>(opt.connect_port);
    if (opt.swap && swap_target.empty()) {
      std::fprintf(stderr, "--swap with --connect needs --swap-path\n");
      return 2;
    }
  } else {
    std::string path = opt.snapshot;
    BootstrapOptions bootstrap;
    bootstrap.scale = opt.scale;
    bootstrap.documents = opt.docs;
    bootstrap.shard_count = opt.shards;
    if (path.empty()) {
      path = "/tmp/standoff_bench_loadgen_" + std::to_string(::getpid()) +
             ".sosnap";
      cleanup_a = path;
      const auto built = BuildXmarkSnapshot(path, bootstrap);
      if (!built.ok()) {
        std::fprintf(stderr, "bootstrap failed: %s\n",
                     built.ToString().c_str());
        return 1;
      }
    }
    if (opt.swap && swap_target.empty()) {
      swap_target = "/tmp/standoff_bench_loadgen_" +
                    std::to_string(::getpid()) + "_b.sosnap";
      cleanup_b = swap_target;
      bootstrap.seed += 1000;  // a genuinely different generation
      const auto built = BuildXmarkSnapshot(swap_target, bootstrap);
      if (!built.ok()) {
        std::fprintf(stderr, "swap bootstrap failed: %s\n",
                     built.ToString().c_str());
        return 1;
      }
    }
    ServerConfig config;
    config.pool_workers = opt.workers;
    config.admission_capacity = opt.queue;
    config.max_connections = opt.connections + 4;
    auto started = Server::Start(path, config);
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    in_process = started.MoveValueUnsafe();
    port = in_process->port();
  }

  // --- Framing floor: closed-loop pings on an idle server. -------------
  // A ping is one frame each way and no engine work, so its round trip
  // is what the wire alone costs every query (report-only).
  std::vector<double> pings_us;
  uint64_t ping_errors = 0;
  {
    auto pinger = Client::Connect(port);
    for (size_t i = 0; pinger.ok() && i < kPingRounds; ++i) {
      const auto sent = Clock::now();
      const standoff::Status pong = (*pinger)->Ping();
      if (!pong.ok()) {
        std::fprintf(stderr, "ping error: %s\n", pong.ToString().c_str());
        break;
      }
      pings_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - sent)
              .count());
    }
    if (pings_us.size() < kPingRounds) ping_errors = 1;
  }
  std::sort(pings_us.begin(), pings_us.end());
  const double ping_p50 = Percentile(pings_us, 0.50);

  // --- Open-loop drive. -------------------------------------------------
  const std::vector<std::string> mix = BuildQueryMix();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.duration));
  std::atomic<uint64_t> next_arrival{0};
  std::atomic<uint64_t> swaps_done{0};
  std::vector<RunTotals> totals(opt.connections);
  std::vector<std::thread> threads;
  threads.reserve(opt.connections);
  for (RunTotals& per_thread : totals) {
    per_thread.rows_by_shape.assign(mix.size(), 0);
  }
  for (uint32_t t = 0; t < opt.connections; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect(port);
      if (!client.ok()) {
        std::fprintf(stderr, "connect failed: %s\n",
                     client.status().ToString().c_str());
        totals[t].errors += 1;
        return;
      }
      RunTotals& mine = totals[t];
      // Transient busy rejections are retried with backoff+jitter
      // instead of being dropped: the retry wait is part of the
      // latency the percentiles report (it happened to the arrival).
      standoff::server::QueryRetryOptions retry;
      retry.max_attempts = static_cast<int>(std::max(1u, opt.retry_attempts));
      retry.jitter_seed = 0x10AD6E5ULL + t;
      for (;;) {
        const uint64_t index = next_arrival.fetch_add(1);
        const auto scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(index) / opt.rate));
        if (scheduled >= deadline) break;
        std::this_thread::sleep_until(scheduled);  // no-op when behind
        const size_t shape = static_cast<size_t>(index) % mix.size();
        auto reply = (*client)->QueryWithRetry(mix[shape], retry);
        const auto finished = Clock::now();
        if (!reply.ok()) {
          mine.errors += 1;
          std::fprintf(stderr, "query error: %s\n",
                       reply.status().ToString().c_str());
          continue;
        }
        mine.retries += static_cast<uint64_t>(reply->attempts - 1);
        if (reply->busy) {
          mine.busy += 1;  // retry budget exhausted, still shedding
          continue;
        }
        mine.ok += 1;
        mine.rows_by_shape[shape] += reply->rows;
        mine.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(finished - scheduled)
                .count());
      }
    });
  }

  std::thread swapper;
  if (opt.swap) {
    swapper = std::thread([&] {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(opt.duration / 2)));
      if (in_process != nullptr && swap_target.empty()) return;
      if (in_process != nullptr && opt.connect_port < 0) {
        auto swapped = in_process->SwapSnapshot(swap_target);
        if (swapped.ok()) swaps_done.fetch_add(1);
        else
          std::fprintf(stderr, "swap failed: %s\n",
                       swapped.status().ToString().c_str());
      } else {
        auto control = Client::Connect(port);
        if (!control.ok()) return;
        auto swapped = (*control)->Swap(swap_target);
        if (swapped.ok()) swaps_done.fetch_add(1);
        else
          std::fprintf(stderr, "swap failed: %s\n",
                       swapped.status().ToString().c_str());
      }
    });
  }

  for (auto& thread : threads) thread.join();
  if (swapper.joinable()) swapper.join();
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (in_process != nullptr) in_process->Stop();
  if (!cleanup_a.empty()) std::remove(cleanup_a.c_str());
  if (!cleanup_b.empty()) std::remove(cleanup_b.c_str());

  // --- Aggregate and report. --------------------------------------------
  RunTotals all;
  all.errors = ping_errors;
  all.rows_by_shape.assign(mix.size(), 0);
  for (auto& per_thread : totals) {
    for (size_t i = 0; i < mix.size(); ++i) {
      all.rows_by_shape[i] += per_thread.rows_by_shape[i];
    }
    all.ok += per_thread.ok;
    all.busy += per_thread.busy;
    all.retries += per_thread.retries;
    all.errors += per_thread.errors;
    all.latencies_us.insert(all.latencies_us.end(),
                            per_thread.latencies_us.begin(),
                            per_thread.latencies_us.end());
  }
  std::sort(all.latencies_us.begin(), all.latencies_us.end());
  double sum = 0;
  for (double v : all.latencies_us) sum += v;
  const double mean =
      all.latencies_us.empty()
          ? 0
          : sum / static_cast<double>(all.latencies_us.size());
  const double p50 = Percentile(all.latencies_us, 0.50);
  const double p95 = Percentile(all.latencies_us, 0.95);
  const double p99 = Percentile(all.latencies_us, 0.99);
  const double qps = static_cast<double>(all.ok) / wall_seconds;
  const uint64_t sent = all.ok + all.busy + all.errors;
#if defined(NDEBUG)
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif

  std::fprintf(stderr,
               "sent=%llu ok=%llu busy=%llu retries=%llu errors=%llu "
               "swaps=%llu qps=%.1f mean=%.0fus p50=%.0fus p95=%.0fus "
               "p99=%.0fus ping_p50_us=%.1f\n",
               static_cast<unsigned long long>(sent),
               static_cast<unsigned long long>(all.ok),
               static_cast<unsigned long long>(all.busy),
               static_cast<unsigned long long>(all.retries),
               static_cast<unsigned long long>(all.errors),
               static_cast<unsigned long long>(swaps_done.load()), qps, mean,
               p50, p95, p99, ping_p50);

  // gbench-shaped JSON so run_bench.sh merges it like the real benches.
  std::printf("{\n");
  std::printf("  \"context\": {\n");
  std::printf("    \"library_build_type\": \"%s\",\n", build_type);
  std::printf("    \"num_cpus\": %u,\n",
              std::max(1u, std::thread::hardware_concurrency()));
  std::printf("    \"executable\": \"bench_server_loadgen\"\n");
  std::printf("  },\n");
  std::printf("  \"benchmarks\": [\n");
  auto emit = [&all, ping_p50](const char* name, double cpu_us, uint64_t iterations,
                     double p50_us, double p95_us, double p99_us,
                     double qps_v, uint64_t busy, uint64_t swaps,
                     bool last) {
    std::printf("    {\n");
    std::printf("      \"name\": \"%s\",\n", name);
    std::printf("      \"run_name\": \"%s\",\n", name);
    std::printf("      \"run_type\": \"iteration\",\n");
    std::printf("      \"iterations\": %llu,\n",
                static_cast<unsigned long long>(iterations));
    std::printf("      \"real_time\": %.3f,\n", cpu_us);
    std::printf("      \"cpu_time\": %.3f,\n", cpu_us);
    std::printf("      \"time_unit\": \"us\",\n");
    std::printf("      \"p50_us\": %.3f,\n", p50_us);
    std::printf("      \"p95_us\": %.3f,\n", p95_us);
    std::printf("      \"p99_us\": %.3f,\n", p99_us);
    std::printf("      \"ping_p50_us\": %.3f,\n", ping_p50);
    std::printf("      \"queries_per_s\": %.3f,\n", qps_v);
    std::printf("      \"busy_rejections\": %llu,\n",
                static_cast<unsigned long long>(busy));
    std::printf("      \"busy_retries\": %llu,\n",
                static_cast<unsigned long long>(all.retries));
    std::printf("      \"swaps\": %llu\n",
                static_cast<unsigned long long>(swaps));
    std::printf("    }%s\n", last ? "" : ",");
  };
  emit("server_loadgen/latency_mean", mean, all.ok, p50, p95, p99, qps,
       all.busy, swaps_done.load(), false);
  emit("server_loadgen/latency_p99", p99, all.ok, p50, p95, p99, qps,
       all.busy, swaps_done.load(), true);
  std::printf("  ]\n");
  std::printf("}\n");

  if (all.errors > 0) return 1;
  if (all.ok == 0) {
    std::fprintf(stderr, "no queries completed\n");
    return 1;
  }
  for (size_t i = 0; i < kChainShapeCount; ++i) {
    if (all.rows_by_shape[i] == 0) {
      std::fprintf(stderr, "chain shape returned no rows: %s\n",
                   mix[i].c_str());
      return 1;
    }
  }
  if (opt.swap && swaps_done.load() == 0) {
    std::fprintf(stderr, "swap requested but did not happen\n");
    return 1;
  }
  return 0;
}
