// standoff_server: serve StandOff chain and FLWOR queries from a
// snapshot over the wire protocol of server/wire.h.
//
//   standoff_server --snapshot=/path/to/file.sosnap [--port=0]
//                   [--workers=2] [--queue=8] [--max-connections=64]
//                   [--wal-dir=DIR] [--wal-sync=always|interval|none]
//                   [--wal-sync-ms=5] [--compact-threshold=N]
//   standoff_server --bootstrap-xmark=/path/to/file.sosnap
//                   [--scale=0.02] [--docs=4] [--shards=2]
//                   [--bootstrap-only]
//
// Queries run on their connection threads, at most --queue at once;
// --workers sizes the pool that runs compactions.
//
// --wal-dir enables crash-safe write-ahead durability (DESIGN.md §16):
// boot replays the log (recovering acknowledged writes, truncating a
// torn tail) and every accepted write is logged before its ack.
// --compact-threshold=N triggers a background compaction whenever N
// delta rows+tombstones are pending.
//
// With --bootstrap-xmark the snapshot is (re)built first, then served;
// --bootstrap-only exits right after the build (CI uses this to stage
// the hot-swap target snapshot without a second serving process).
// Prints "LISTENING port=<N> generation=<G>" on stdout once ready, so
// scripts can scrape the ephemeral port, and serves until SIGINT or
// SIGTERM.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "server/bootstrap.h"
#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

bool TakeFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using standoff::server::BootstrapOptions;
  using standoff::server::BuildXmarkSnapshot;
  using standoff::server::Server;
  using standoff::server::ServerConfig;

  std::string snapshot_path;
  std::string bootstrap_path;
  bool bootstrap_only = false;
  BootstrapOptions bootstrap;
  ServerConfig config;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (TakeFlag(argv[i], "--snapshot", &value)) {
      snapshot_path = value;
    } else if (TakeFlag(argv[i], "--bootstrap-xmark", &value)) {
      bootstrap_path = value;
    } else if (TakeFlag(argv[i], "--scale", &value)) {
      bootstrap.scale = std::atof(value.c_str());
    } else if (TakeFlag(argv[i], "--docs", &value)) {
      bootstrap.documents = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (TakeFlag(argv[i], "--shards", &value)) {
      bootstrap.shard_count = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (TakeFlag(argv[i], "--port", &value)) {
      config.port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (TakeFlag(argv[i], "--workers", &value)) {
      config.pool_workers = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (TakeFlag(argv[i], "--queue", &value)) {
      config.admission_capacity =
          static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (TakeFlag(argv[i], "--max-connections", &value)) {
      config.max_connections =
          static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (TakeFlag(argv[i], "--wal-dir", &value)) {
      config.wal_dir = value;
    } else if (TakeFlag(argv[i], "--wal-sync", &value)) {
      if (value == "always") {
        config.wal_sync = standoff::storage::WalSyncPolicy::kAlways;
      } else if (value == "interval") {
        config.wal_sync = standoff::storage::WalSyncPolicy::kEveryNMs;
      } else if (value == "none") {
        config.wal_sync = standoff::storage::WalSyncPolicy::kNone;
      } else {
        std::fprintf(stderr, "--wal-sync wants always|interval|none\n");
        return 2;
      }
    } else if (TakeFlag(argv[i], "--wal-sync-ms", &value)) {
      config.wal_sync_interval_ms = std::atof(value.c_str());
    } else if (TakeFlag(argv[i], "--compact-threshold", &value)) {
      config.compact_live_rows_threshold =
          static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (std::strcmp(argv[i], "--bootstrap-only") == 0) {
      bootstrap_only = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  if (!bootstrap_path.empty()) {
    const auto status = BuildXmarkSnapshot(bootstrap_path, bootstrap);
    if (!status.ok()) {
      std::fprintf(stderr, "bootstrap failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    if (bootstrap_only) {
      std::printf("BOOTSTRAPPED %s\n", bootstrap_path.c_str());
      return 0;
    }
    if (snapshot_path.empty()) snapshot_path = bootstrap_path;
  }
  if (bootstrap_only) {
    std::fprintf(stderr, "--bootstrap-only needs --bootstrap-xmark=PATH\n");
    return 2;
  }
  if (snapshot_path.empty()) {
    std::fprintf(stderr,
                 "usage: standoff_server --snapshot=PATH | "
                 "--bootstrap-xmark=PATH [--port=N] [--workers=N] "
                 "[--queue=N]\n");
    return 2;
  }

  auto server = Server::Start(snapshot_path, config);
  if (!server.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("LISTENING port=%u generation=%llu\n",
              unsigned{(*server)->port()},
              static_cast<unsigned long long>((*server)->generation()));
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    struct timespec ts {0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  (*server)->Stop();
  const auto stats = (*server)->stats();
  std::fprintf(stderr,
               "served: ok=%llu rejected=%llu error=%llu connections=%llu "
               "swaps=%llu\n",
               static_cast<unsigned long long>(stats.queries_ok),
               static_cast<unsigned long long>(stats.queries_rejected),
               static_cast<unsigned long long>(stats.queries_error),
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.swaps));
  return 0;
}
