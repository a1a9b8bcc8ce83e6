// Wire-level server coverage: well-formed exchanges round-trip, and
// every malformed input the protocol can see — truncated frames,
// hostile length prefixes, malformed query text, disconnects
// mid-stream, admission-queue overload, the connection cap — produces
// a clean error (or a closed connection) and leaves the server fully
// serviceable. Runs under ASan/TSan in the sanitizer CI jobs.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/snapshot.h"
#include "tests/harness.h"
#include "xquery/engine.h"

using namespace standoff;

namespace {

std::string TempPath(const char* name) {
  return std::string("/tmp/standoff_test_") + name + "_" +
         std::to_string(::getpid()) + ".sosnap";
}

std::string PlayXml(uint64_t seed, int scenes) {
  Rng rng(seed);
  std::string xml = "<play>";
  for (int s = 0; s < scenes; ++s) {
    const int64_t base = s * 1000;
    xml += "<scene start=\"" + std::to_string(base) + "\" end=\"" +
           std::to_string(base + 999) + "\"/>";
    for (int p = 0; p < 4; ++p) {
      const int64_t sp = base + rng.UniformRange(0, 800);
      xml += "<speech start=\"" + std::to_string(sp) + "\" end=\"" +
             std::to_string(sp + 150) + "\"/>";
      for (int w = 0; w < 5; ++w) {
        const int64_t ws = sp + rng.UniformRange(0, 140);
        xml += "<word start=\"" + std::to_string(ws) + "\" end=\"" +
               std::to_string(ws + 6) + "\"/>";
      }
    }
  }
  xml += "</play>";
  return xml;
}

/// One snapshot + one running server per fixture; everything through
/// ephemeral ports so tests never collide.
struct ServerFixture {
  explicit ServerFixture(const char* name,
                         server::ServerConfig config = {}) {
    path = TempPath(name);
    storage::ShardedStore store(2);
    for (int d = 0; d < 3; ++d) {
      CHECK_OK(store.AddDocumentText("d" + std::to_string(d),
                                     PlayXml(500 + d, 12)));
    }
    CHECK_OK(storage::SaveSnapshot(store, path));
    auto started = server::Server::Start(path, config);
    CHECK_OK(started);
    srv = started.MoveValueUnsafe();
  }
  ~ServerFixture() {
    srv->Stop();
    std::remove(path.c_str());
  }

  std::unique_ptr<server::Client> Connect() {
    auto client = server::Client::Connect(srv->port());
    CHECK_OK(client);
    return client.MoveValueUnsafe();
  }

  std::string path;
  std::unique_ptr<server::Server> srv;
};

constexpr char kChainQuery[] =
    "chain doc=1 ctx=scene steps=select-narrow:speech,select-narrow:word";

/// Raw socket helper for malformed-bytes tests.
int RawConnect(uint16_t port) {
  auto client = server::Client::Connect(port);
  CHECK_OK(client);
  // Leak the Client wrapper's fd on purpose: dup it and let the
  // wrapper close the original.
  const int fd = ::dup((*client)->fd());
  CHECK(fd >= 0);
  return fd;
}

/// This process's virtual size in KiB (VmSize in /proc/self/status);
/// 0 when the file is unavailable.
uint64_t VmSizeKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

}  // namespace

static void TestPingAndQueryRoundTrip() {
  ServerFixture fx("wire_roundtrip");
  auto client = fx.Connect();
  CHECK_OK(client->Ping());

  auto reply = client->Query(kChainQuery);
  CHECK_OK(reply);
  CHECK(!reply->busy);
  CHECK_EQ(reply->generation, uint64_t{1});
  CHECK_EQ(int{reply->kind}, 0);
  CHECK(reply->rows > 0);

  // Decode the payload and cross-check against a local engine over the
  // same snapshot.
  auto snapshot = storage::Snapshot::Open(fx.path);
  CHECK_OK(snapshot);
  xquery::Engine engine(&(*snapshot)->store());
  xquery::ChainQuery query;
  query.doc = 1;
  query.context_name = "scene";
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "speech"});
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "word"});
  auto local = engine.EvaluateChain(query);
  CHECK_OK(local);

  size_t off = 0;
  auto context_count = server::TakeU32(reply->payload, &off);
  CHECK_OK(context_count);
  CHECK_EQ(size_t{*context_count}, local->context_ids.size());
  for (storage::Pre expected : local->context_ids) {
    auto id = server::TakeU32(reply->payload, &off);
    CHECK_OK(id);
    CHECK_EQ(*id, expected);
  }
  auto match_count = server::TakeU32(reply->payload, &off);
  CHECK_OK(match_count);
  CHECK_EQ(size_t{*match_count}, local->matches.size());
  CHECK_EQ(reply->rows, uint64_t{local->matches.size()});
  for (const so::IterMatch& expected : local->matches) {
    auto iter = server::TakeU32(reply->payload, &off);
    auto pre = server::TakeU32(reply->payload, &off);
    CHECK_OK(iter);
    CHECK_OK(pre);
    CHECK_EQ(*iter, expected.iter);
    CHECK_EQ(*pre, expected.pre);
  }
  CHECK_EQ(off, reply->payload.size());
}

static void TestFlworQuery() {
  ServerFixture fx("wire_flwor");
  auto client = fx.Connect();
  auto reply = client->Query("flwor count(/play/select-narrow::word)");
  CHECK_OK(reply);
  CHECK_EQ(int{reply->kind}, 1);
  CHECK_EQ(reply->rows, uint64_t{1});

  auto snapshot = storage::Snapshot::Open(fx.path);
  CHECK_OK(snapshot);
  xquery::Engine engine(&(*snapshot)->store());
  auto local = engine.Evaluate("count(/play/select-narrow::word)");
  CHECK_OK(local);
  CHECK_EQ(local->items.size(), size_t{1});

  size_t off = 0;
  auto item_count = server::TakeU32(reply->payload, &off);
  CHECK_OK(item_count);
  CHECK_EQ(*item_count, uint32_t{1});
  CHECK_EQ(int{reply->payload[off++]},
           static_cast<int>(algebra::Item::Kind::kInt));
  auto value = server::TakeU64(reply->payload, &off);
  CHECK_OK(value);
  CHECK_EQ(static_cast<int64_t>(*value), local->items[0].int_value());
}

// Parse failures and out-of-range documents: kError with the right
// status code, and the connection stays usable afterwards.
static void TestMalformedQueriesKeepConnectionUsable() {
  ServerFixture fx("wire_malformed");
  auto client = fx.Connect();
  const char* bad[] = {
      "",                                    // empty
      "frob doc=0",                          // unknown verb
      "chain doc=0",                         // missing fields
      "chain doc=zz ctx=a steps=sn:b",       // bad number
      "chain doc=0 ctx=a steps=warp:b",      // bad axis
      "chain doc=0 ctx=a steps=sn:",         // empty step name
      "chain doc=99 ctx=scene steps=sn:speech",  // doc out of range
      "flwor",                               // no text
      "flwor count(/play",                   // engine-level parse error
  };
  for (const char* text : bad) {
    auto reply = client->Query(text);
    CHECK(!reply.ok());
    CHECK(reply.status().code() == StatusCode::kInvalidArgument ||
          reply.status().code() == StatusCode::kNotFound);
  }
  CHECK_OK(client->Ping());  // still serviceable
  auto good = client->Query(kChainQuery);
  CHECK_OK(good);
  CHECK(good->rows > 0);

  auto stats = client->Stats();
  CHECK_OK(stats);
  CHECK(stats->queries_error >= uint64_t{sizeof bad / sizeof bad[0]});
}

// A peer that announces a frame and hangs up mid-payload, or sends a
// hostile length prefix: the server drops that connection and keeps
// serving everyone else.
static void TestTruncatedAndOversizedFrames() {
  ServerFixture fx("wire_truncated");
  {
    // Truncated: length says 100, only 10 bytes arrive, then close.
    const int fd = RawConnect(fx.srv->port());
    std::string bytes;
    server::AppendU32(&bytes, 100);
    bytes.append(10, 'x');
    CHECK(::send(fd, bytes.data(), bytes.size(), 0) ==
          static_cast<ssize_t>(bytes.size()));
    ::close(fd);
  }
  {
    // Oversized: length prefix far beyond kMaxFrameBytes. The server
    // answers with a protocol error (or just closes) — it must never
    // allocate the announced size.
    const int fd = RawConnect(fx.srv->port());
    std::string bytes;
    server::AppendU32(&bytes, 0x7FFFFFFFu);
    bytes.push_back('\x01');
    CHECK(::send(fd, bytes.data(), bytes.size(), 0) ==
          static_cast<ssize_t>(bytes.size()));
    auto reply = server::ReadFrame(fd);
    if (reply.ok()) CHECK(reply->type == server::MsgType::kError);
    ::close(fd);
  }
  {
    // Zero-length frame.
    const int fd = RawConnect(fx.srv->port());
    std::string bytes;
    server::AppendU32(&bytes, 0);
    CHECK(::send(fd, bytes.data(), bytes.size(), 0) ==
          static_cast<ssize_t>(bytes.size()));
    auto reply = server::ReadFrame(fd);
    if (reply.ok()) CHECK(reply->type == server::MsgType::kError);
    ::close(fd);
  }
  // The server survived all three abuses.
  auto client = fx.Connect();
  CHECK_OK(client->Ping());
  auto reply = client->Query(kChainQuery);
  CHECK_OK(reply);
  CHECK(reply->rows > 0);
}

// A client that fires a query and vanishes before reading the result:
// the server's writes fail, the connection is reaped, no crash.
static void TestClientDisconnectMidStream() {
  ServerFixture fx("wire_disconnect");
  for (int i = 0; i < 8; ++i) {
    const int fd = RawConnect(fx.srv->port());
    std::string body;
    body.push_back(static_cast<char>(server::MsgType::kQueryReq));
    body.append(kChainQuery);
    std::string frame;
    server::AppendU32(&frame, static_cast<uint32_t>(body.size()));
    frame.append(body);
    CHECK(::send(fd, frame.data(), frame.size(), 0) ==
          static_cast<ssize_t>(frame.size()));
    ::close(fd);  // gone before the result streams back
  }
  auto client = fx.Connect();
  CHECK_OK(client->Ping());
  // The eight abandoned queries were all admitted and may still be
  // draining; retry past their transient busy rejections rather than
  // racing the worker pool.
  server::QueryRetryOptions retry;
  retry.max_attempts = 50;
  auto reply = client->QueryWithRetry(kChainQuery, retry);
  CHECK_OK(reply);
  CHECK(!reply->busy);
  CHECK(reply->rows > 0);
}

// Admission capacity 0: every query is rejected with kBusy,
// deterministically, and counted in the stats.
static void TestBackpressureRejectsWhenFull() {
  server::ServerConfig config;
  config.admission_capacity = 0;
  ServerFixture fx("wire_busy", config);
  auto client = fx.Connect();
  for (int i = 0; i < 3; ++i) {
    auto reply = client->Query(kChainQuery);
    CHECK_OK(reply);
    CHECK(reply->busy);
  }
  CHECK_OK(client->Ping());  // pings bypass the gate
  auto stats = client->Stats();
  CHECK_OK(stats);
  CHECK_EQ(stats->queries_rejected, uint64_t{3});
  CHECK_EQ(stats->queries_ok, uint64_t{0});
}

// Admission capacity 1 under concurrent load: some queries succeed,
// rejected + ok adds up to everything sent, nothing hangs or crashes.
static void TestBackpressureUnderConcurrency() {
  server::ServerConfig config;
  config.admission_capacity = 1;
  config.pool_workers = 2;
  ServerFixture fx("wire_busy_conc", config);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<uint64_t> ok_counts(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fx, &ok_counts, t] {
      auto client = fx.Connect();
      for (int i = 0; i < kPerThread; ++i) {
        auto reply = client->Query(kChainQuery);
        CHECK_OK(reply);
        if (!reply->busy) ++ok_counts[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  uint64_t total_ok = 0;
  for (uint64_t count : ok_counts) total_ok += count;
  CHECK(total_ok > 0);  // capacity 1 still admits serial traffic
  auto client = fx.Connect();
  auto stats = client->Stats();
  CHECK_OK(stats);
  CHECK_EQ(stats->queries_ok, total_ok);
  CHECK_EQ(stats->queries_ok + stats->queries_rejected,
           uint64_t{kThreads * kPerThread});
}

// Connections beyond max_connections are turned away with an error
// frame; closing one frees the slot.
static void TestConnectionCap() {
  server::ServerConfig config;
  config.max_connections = 1;
  ServerFixture fx("wire_conncap", config);
  auto first = fx.Connect();
  CHECK_OK(first->Ping());

  auto second = fx.Connect();
  auto frame = server::ReadFrame(second->fd());
  CHECK_OK(frame);
  CHECK(frame->type == server::MsgType::kError);
  second.reset();

  first.reset();  // free the slot
  // The slot release races with our next connect; retry briefly.
  bool reconnected = false;
  for (int i = 0; i < 50 && !reconnected; ++i) {
    auto retry = fx.Connect();
    if (retry->Ping().ok()) {
      reconnected = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  CHECK(reconnected);
}

// Exited connection threads are joined while the server runs: 1,000
// connect/ping/close cycles must not leave 1,000 unjoined threads, each
// keeping its stack mapped until Stop().
static void TestExitedConnectionsAreReaped() {
  ServerFixture fx("wire_reap");
  const uint64_t before = VmSizeKib();
  CHECK(before > 0);
  for (int i = 0; i < 1000; ++i) {
    auto client = fx.Connect();
    CHECK_OK(client->Ping());
  }
  const uint64_t growth_mib = (VmSizeKib() - before) / 1024;
  CHECK(growth_mib < 256);
}

// Per-query deadlines: a microsecond budget deterministically trips
// the first merge-pass checkpoint (kError carrying kTimedOut), a
// generous budget answers byte-identically to no deadline at all, and
// a malformed deadline is a parse error. The connection survives all
// of it.
static void TestPerQueryDeadline() {
  ServerFixture fx("wire_deadline");
  auto client = fx.Connect();

  auto timed_out = client->Query(
      "chain doc=1 ctx=scene deadline_ms=0.000001 "
      "steps=select-narrow:speech,select-narrow:word");
  CHECK(!timed_out.ok());
  CHECK(timed_out.status().code() == StatusCode::kTimedOut);

  auto flwor_timed_out =
      client->Query("flwor deadline_ms=0.000001 count(/play/select-narrow::word)");
  CHECK(!flwor_timed_out.ok());
  CHECK(flwor_timed_out.status().code() == StatusCode::kTimedOut);

  auto bad = client->Query(
      "chain doc=1 ctx=scene deadline_ms=abc steps=select-narrow:word");
  CHECK(!bad.ok());
  CHECK(bad.status().code() == StatusCode::kInvalidArgument);

  auto generous = client->Query(
      "chain doc=1 ctx=scene deadline_ms=60000 "
      "steps=select-narrow:speech,select-narrow:word");
  auto unlimited = client->Query(kChainQuery);
  CHECK_OK(generous);
  CHECK_OK(unlimited);
  CHECK(generous->payload == unlimited->payload);
  CHECK_EQ(generous->rows, unlimited->rows);

  auto flwor_generous = client->Query(
      "flwor deadline_ms=60000 count(/play/select-narrow::word)");
  CHECK_OK(flwor_generous);
  CHECK_OK(client->Ping());

  // A tripped deadline does not leak: right after it, the same text
  // without deadline_ms on the SAME connection succeeds and answers
  // byte-identically to a fresh connection. (The chain is one this
  // connection has not run yet, so no memoized result short-cuts the
  // deadline checkpoint.)
  const std::pair<const char*, const char*> kinds[] = {
      {"chain doc=2 ctx=scene deadline_ms=0.000001 "
       "steps=select-wide:speech,select-narrow:word",
       "chain doc=2 ctx=scene steps=select-wide:speech,select-narrow:word"},
      {"flwor deadline_ms=0.000001 count(/play/select-narrow::word)",
       "flwor count(/play/select-narrow::word)"},
  };
  for (const auto& [tight, plain] : kinds) {
    auto tripped = client->Query(tight);
    CHECK(!tripped.ok());
    CHECK(tripped.status().code() == StatusCode::kTimedOut);
    auto after = client->Query(plain);
    auto fresh = fx.Connect()->Query(plain);
    CHECK_OK(after);
    CHECK_OK(fresh);
    CHECK(after->payload == fresh->payload);
    CHECK_EQ(after->rows, fresh->rows);
  }
}

// A peer that announces an absurd result size must not make the client
// allocate it: Query returns an error instead of throwing.
static void TestClientRejectsHostileResultHeader() {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CHECK(listen_fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  CHECK(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
        0);
  CHECK(::listen(listen_fd, 1) == 0);
  socklen_t addr_len = sizeof addr;
  CHECK(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) == 0);

  std::thread peer([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    CHECK(fd >= 0);
    auto query = server::ReadFrame(fd);
    CHECK_OK(query);
    std::string header;
    server::AppendU64(&header, 1);  // generation
    header.push_back('\0');         // chain result
    server::AppendU64(&header, UINT64_MAX);  // announced payload bytes
    server::AppendU64(&header, 0);  // rows
    CHECK_OK(server::WriteFrame(fd, server::MsgType::kResultHeader, header));
    std::string end;
    server::AppendU64(&end, 0);
    CHECK_OK(server::WriteFrame(fd, server::MsgType::kResultEnd, end));
    ::close(fd);
  });

  auto client = server::Client::Connect(ntohs(addr.sin_port));
  CHECK_OK(client);
  auto reply = (*client)->Query(kChainQuery);
  CHECK(!reply.ok());
  peer.join();
  ::close(listen_fd);
}

// The stats frame's sub-plan memo counters: an overlapping pair of
// chain queries on one connection must show memo hits once the second
// query reuses the first one's prefix.
static void TestStatsReportSubPlanCounters() {
  ServerFixture fx("wire_subplan_stats");
  auto client = fx.Connect();

  auto before = client->Stats();
  CHECK_OK(before);
  CHECK_EQ(before->subplan_hits, uint64_t{0});

  CHECK_OK(client->Query(kChainQuery));
  auto first = client->Stats();
  CHECK_OK(first);
  CHECK(first->subplan_misses > 0);  // cold probes populate the memo

  CHECK_OK(client->Query(kChainQuery));  // exact repeat: full-chain hit
  CHECK_OK(client->Query(
      "chain doc=1 ctx=scene steps=select-narrow:speech,select-wide:word"));
  auto after = client->Stats();
  CHECK_OK(after);
  CHECK(after->subplan_hits > 0);
  CHECK(after->subplan_misses >= first->subplan_misses);
}

int main() {
  RUN_TEST(TestPingAndQueryRoundTrip);
  RUN_TEST(TestFlworQuery);
  RUN_TEST(TestMalformedQueriesKeepConnectionUsable);
  RUN_TEST(TestTruncatedAndOversizedFrames);
  RUN_TEST(TestClientDisconnectMidStream);
  RUN_TEST(TestBackpressureRejectsWhenFull);
  RUN_TEST(TestBackpressureUnderConcurrency);
  RUN_TEST(TestConnectionCap);
  RUN_TEST(TestExitedConnectionsAreReaped);
  RUN_TEST(TestPerQueryDeadline);
  RUN_TEST(TestStatsReportSubPlanCounters);
  RUN_TEST(TestClientRejectsHostileResultHeader);
  TEST_MAIN();
}
