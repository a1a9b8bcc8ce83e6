// standoff_client: a wire-protocol CLI for scripts and CI.
//
//   standoff_client --port=N [op ...]
//
// Operations execute left to right on one connection and print one
// line each; the process exits non-zero on the first failure.
//
//   --ping                       PONG
//   --hello                      PROTOCOL <version>
//   --query=TEXT                 ROWS <n>        (busy retries built in)
//   --insert=doc,id,start,end    SEQ <n>
//   --delete=doc,id              SEQ <n>
//   --compact[=path]             COMPACTED gen=<g> seq=<s>
//   --swap=path                  SWAPPED gen=<g>
//   --stats                      STATS key=value ... (every ServerStats
//                                counter, kServerStatsFields order)
//
// The CI kill-and-recover loop drives writes with --insert, SIGKILLs
// the server, restarts it on the same --wal-dir, and verifies the
// acknowledged rows with --query.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "server/client.h"

namespace {

bool TakeFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

/// Splits "a,b,c" into int64 fields; false on count/format mismatch.
bool ParseInts(const std::string& text, size_t count,
               std::vector<int64_t>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string field = text.substr(pos, comma - pos);
    if (field.empty()) return false;
    char* end = nullptr;
    out->push_back(std::strtoll(field.c_str(), &end, 10));
    if (end == field.c_str() || *end != '\0') return false;
    pos = comma + 1;
    if (comma == text.size()) break;
  }
  return out->size() == count;
}

int Fail(const standoff::Status& status, const char* what) {
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using standoff::server::Client;

  uint16_t port = 0;
  std::vector<std::string> ops;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (TakeFlag(argv[i], "--port", &value)) {
      port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else {
      ops.push_back(argv[i]);
    }
  }
  if (port == 0 || ops.empty()) {
    std::fprintf(stderr,
                 "usage: standoff_client --port=N [--ping] [--hello] "
                 "[--query=TEXT] [--insert=doc,id,start,end] "
                 "[--delete=doc,id] [--compact[=path]] [--swap=path] "
                 "[--stats]\n");
    return 2;
  }

  auto client = Client::Connect(port);
  if (!client.ok()) return Fail(client.status(), "connect");

  for (const std::string& op : ops) {
    std::string value;
    if (TakeFlag(op.c_str(), "--query", &value)) {
      auto reply = (*client)->QueryWithRetry(value);
      if (!reply.ok()) return Fail(reply.status(), "query");
      if (reply->busy) {
        std::fprintf(stderr, "query still busy after %d attempts\n",
                     reply->attempts);
        return 1;
      }
      std::printf("ROWS %" PRIu64 "\n", reply->rows);
    } else if (TakeFlag(op.c_str(), "--insert", &value)) {
      std::vector<int64_t> f;
      if (!ParseInts(value, 4, &f)) {
        std::fprintf(stderr, "--insert wants doc,id,start,end\n");
        return 2;
      }
      auto seq = (*client)->InsertRegion(static_cast<uint32_t>(f[0]),
                                         static_cast<uint32_t>(f[1]), f[2],
                                         f[3]);
      if (!seq.ok()) return Fail(seq.status(), "insert");
      std::printf("SEQ %" PRIu64 "\n", *seq);
    } else if (TakeFlag(op.c_str(), "--delete", &value)) {
      std::vector<int64_t> f;
      if (!ParseInts(value, 2, &f)) {
        std::fprintf(stderr, "--delete wants doc,id\n");
        return 2;
      }
      auto seq = (*client)->DeleteRegions(static_cast<uint32_t>(f[0]),
                                          static_cast<uint32_t>(f[1]));
      if (!seq.ok()) return Fail(seq.status(), "delete");
      std::printf("SEQ %" PRIu64 "\n", *seq);
    } else if (op == "--compact" ||
               TakeFlag(op.c_str(), "--compact", &value)) {
      auto reply = (*client)->Compact(value);
      if (!reply.ok()) return Fail(reply.status(), "compact");
      std::printf("COMPACTED gen=%" PRIu64 " seq=%" PRIu64 "\n",
                  reply->generation, reply->compacted_seq);
    } else if (TakeFlag(op.c_str(), "--swap", &value)) {
      auto generation = (*client)->Swap(value);
      if (!generation.ok()) return Fail(generation.status(), "swap");
      std::printf("SWAPPED gen=%" PRIu64 "\n", *generation);
    } else if (op == "--ping") {
      const auto status = (*client)->Ping();
      if (!status.ok()) return Fail(status, "ping");
      std::printf("PONG\n");
    } else if (op == "--hello") {
      auto version = (*client)->Hello();
      if (!version.ok()) return Fail(version.status(), "hello");
      std::printf("PROTOCOL %u\n", *version);
    } else if (op == "--stats") {
      auto stats = (*client)->Stats();
      if (!stats.ok()) return Fail(stats.status(), "stats");
      std::printf("STATS");
      for (const standoff::server::ServerStatsField& field :
           standoff::server::kServerStatsFields) {
        std::printf(" %s=%" PRIu64, field.name, (*stats).*field.value);
      }
      std::printf("\n");
    } else {
      std::fprintf(stderr, "unknown op: %s\n", op.c_str());
      return 2;
    }
  }
  return 0;
}
