// Wire-level server coverage: well-formed exchanges round-trip, and
// every malformed input the protocol can see — truncated frames,
// hostile length prefixes, malformed query text, disconnects
// mid-stream, admission-queue overload, the connection cap — produces
// a clean error (or a closed connection) and leaves the server fully
// serviceable. Runs under ASan/TSan in the sanitizer CI jobs.
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
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
  explicit ServerFixture(const char* name, server::ServerConfig config = {},
                         int doc0_scenes = 12) {
    path = TempPath(name);
    storage::ShardedStore store(2);
    for (int d = 0; d < 3; ++d) {
      CHECK_OK(store.AddDocumentText("d" + std::to_string(d),
                                     PlayXml(500 + d, d == 0 ? doc0_scenes
                                                             : 12)));
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
  // A reply that never comes fails the test instead of hanging it.
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

/// The bytes one frame puts on the wire, encoded independently of
/// server/wire.cc: what a WriteFrame call sent before replies were
/// gathered into one write.
std::string ReferenceFrame(server::MsgType type, std::string_view body) {
  std::string frame;
  server::AppendU32(&frame, static_cast<uint32_t>(body.size() + 1));
  frame.push_back(static_cast<char>(type));
  frame.append(body);
  return frame;
}

void SendAll(int fd, std::string_view bytes) {
  CHECK(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(bytes.size()));
}

/// Reads one result reply (header, chunks, end) and returns the chunk
/// bytes.
std::string ReadResultPayload(server::FrameReader* reader) {
  std::string payload;
  auto header = reader->Next();
  CHECK_OK(header);
  if (!header.ok()) return payload;
  CHECK(header->type == server::MsgType::kResultHeader);
  for (;;) {
    auto frame = reader->Next();
    CHECK_OK(frame);
    if (!frame.ok()) return payload;
    if (frame->type != server::MsgType::kResultChunk) {
      CHECK(frame->type == server::MsgType::kResultEnd);
      return payload;
    }
    payload.append(frame->body);
  }
}

/// A connected AF_UNIX stream pair: [0] writes, [1] reads.
struct SocketPair {
  SocketPair() { CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0); }
  ~SocketPair() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  void CloseWriter() {
    ::close(fds[0]);
    fds[0] = -1;
  }
  int fds[2] = {-1, -1};
};

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
    server::FrameReader reader(fd);
    auto reply = reader.Next();
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
    server::FrameReader reader(fd);
    auto reply = reader.Next();
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
  server::FrameReader reader(second->fd());
  auto frame = reader.Next();
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
    server::FrameReader reader(fd);
    auto query = reader.Next();
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

// The server's reader buffers: a query that trickles in one byte per
// send, or split exactly at the prefix/type/body boundaries, is
// answered exactly like one sent whole.
static void TestServerReadsSplitFrames() {
  ServerFixture fx("wire_split");
  auto reference = fx.Connect()->Query(kChainQuery);
  CHECK_OK(reference);
  if (!reference.ok()) return;
  const std::string frame =
      ReferenceFrame(server::MsgType::kQueryReq, kChainQuery);

  const int trickle = RawConnect(fx.srv->port());
  for (char byte : frame) SendAll(trickle, std::string_view(&byte, 1));
  server::FrameReader trickle_reader(trickle);
  CHECK(ReadResultPayload(&trickle_reader) == reference->payload);
  ::close(trickle);

  const int split = RawConnect(fx.srv->port());
  const size_t cuts[] = {0, 2, 4, 5, frame.size()};  // inside the prefix too
  for (size_t i = 0; i + 1 < sizeof cuts / sizeof cuts[0]; ++i) {
    SendAll(split, std::string_view(frame).substr(cuts[i],
                                                  cuts[i + 1] - cuts[i]));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server::FrameReader split_reader(split);
  CHECK(ReadResultPayload(&split_reader) == reference->payload);
  ::close(split);
}

// Two frames in one send: the server answers both, in order, and the
// client's reader hands out both replies from what it buffered.
static void TestServerAnswersPipelinedFrames() {
  ServerFixture fx("wire_pipelined");
  auto reference = fx.Connect()->Query(kChainQuery);
  CHECK_OK(reference);
  if (!reference.ok()) return;
  const int fd = RawConnect(fx.srv->port());
  SendAll(fd, ReferenceFrame(server::MsgType::kPingReq, "first") +
                  ReferenceFrame(server::MsgType::kQueryReq, kChainQuery));
  server::FrameReader reader(fd);
  auto pong = reader.Next();
  CHECK_OK(pong);
  if (pong.ok()) {
    CHECK(pong->type == server::MsgType::kPong);
    CHECK(pong->body == "first");
  }
  CHECK(ReadResultPayload(&reader) == reference->payload);
  ::close(fd);
}

// The reader's error taxonomy, frame by frame over a socket pair: EOF
// between frames is a clean close, EOF inside a buffered prefix or body
// is a truncated frame, and a zero or oversized prefix is refused
// before the buffer grows.
static void TestReaderErrorTaxonomy() {
  {
    SocketPair pair;
    SendAll(pair.fds[0], ReferenceFrame(server::MsgType::kPingReq, "x"));
    pair.CloseWriter();
    server::FrameReader reader(pair.fds[1]);
    auto frame = reader.Next();
    CHECK_OK(frame);
    auto closed = reader.Next();
    CHECK(closed.status().code() == StatusCode::kNotFound);
  }
  {
    // A whole frame, then two bytes of the next prefix.
    SocketPair pair;
    SendAll(pair.fds[0], ReferenceFrame(server::MsgType::kPingReq, "x") +
                             std::string("\x09\x00", 2));
    pair.CloseWriter();
    server::FrameReader reader(pair.fds[1]);
    CHECK_OK(reader.Next());
    auto truncated = reader.Next();
    CHECK(truncated.status().code() == StatusCode::kInternal);
  }
  {
    // A prefix announcing 100 bytes, then 10 of them.
    SocketPair pair;
    SendAll(pair.fds[0],
            ReferenceFrame(server::MsgType::kPingReq, std::string(99, 'y'))
                .substr(0, 4 + 10));
    pair.CloseWriter();
    server::FrameReader reader(pair.fds[1]);
    auto truncated = reader.Next();
    CHECK(truncated.status().code() == StatusCode::kInternal);
  }
  const uint32_t hostile[] = {0, server::kMaxFrameBytes + 1, 0xFFFFFFFFu};
  for (uint32_t length : hostile) {
    SocketPair pair;
    std::string bytes;
    server::AppendU32(&bytes, length);
    bytes.append(64, 'z');
    SendAll(pair.fds[0], bytes);
    server::FrameReader reader(pair.fds[1]);
    auto refused = reader.Next();
    CHECK(refused.status().code() == StatusCode::kInvalidArgument);
    CHECK_EQ(reader.capacity(), server::FrameReader::kInitialBytes);
  }
}

// The server's side of the same taxonomy: a zero or oversized prefix
// is answered with kError carrying kInvalidArgument and the connection
// closes; EOF inside a prefix or a body closes it without a reply.
static void TestServerReaderErrors() {
  ServerFixture fx("wire_reader_errors");
  const uint32_t hostile[] = {0, server::kMaxFrameBytes + 1};
  for (uint32_t length : hostile) {
    const int fd = RawConnect(fx.srv->port());
    std::string bytes;
    server::AppendU32(&bytes, length);
    SendAll(fd, bytes);
    server::FrameReader reader(fd);
    auto reply = reader.Next();
    CHECK_OK(reply);
    if (reply.ok()) {
      CHECK(reply->type == server::MsgType::kError);
      CHECK(!reply->body.empty() &&
            static_cast<StatusCode>(reply->body[0]) ==
                StatusCode::kInvalidArgument);
    }
    CHECK(reader.Next().status().code() == StatusCode::kNotFound);
    ::close(fd);
  }
  const std::string frame =
      ReferenceFrame(server::MsgType::kQueryReq, kChainQuery);
  for (size_t cut : {size_t{2}, frame.size() - 3}) {
    const int fd = RawConnect(fx.srv->port());
    SendAll(fd, std::string_view(frame).substr(0, cut));
    ::shutdown(fd, SHUT_WR);
    server::FrameReader reader(fd);
    CHECK(reader.Next().status().code() == StatusCode::kNotFound);
    ::close(fd);
  }
  auto client = fx.Connect();
  CHECK_OK(client->Ping());
}

// The largest legal frame grows the buffer to exactly that frame, never
// past kMaxFrameBytes + 5, and the next small frame shrinks it back.
// One byte more is refused by the writer before anything is sent.
static void TestReaderBufferBound() {
  SocketPair pair;
  const std::string big(server::kMaxFrameBytes - 1, 'b');
  std::thread writer([&pair, &big] {
    CHECK_OK(server::WriteFrame(pair.fds[0], server::MsgType::kPong, big));
    CHECK(!server::WriteFrame(pair.fds[0], server::MsgType::kPong,
                              big + "!")
               .ok());
    CHECK_OK(server::WriteFrame(pair.fds[0], server::MsgType::kPong, "s"));
  });
  server::FrameReader reader(pair.fds[1]);
  auto frame = reader.Next();
  CHECK_OK(frame);
  if (frame.ok()) CHECK(frame->body == big);
  CHECK_EQ(reader.capacity(), size_t{server::kMaxFrameBytes} + 4);
  CHECK(reader.capacity() <= size_t{server::kMaxFrameBytes} + 5);
  auto small = reader.Next();
  CHECK_OK(small);
  if (small.ok()) CHECK(small->body == "s");
  CHECK_EQ(reader.capacity(), server::FrameReader::kInitialBytes);
  writer.join();
}

// The server's replies are byte-identical to the frame sequence the
// per-frame writes produced: header, the payload in kChunkBytes chunks,
// end — for a payload past one chunk and for a small one.
static void TestReplyBytesMatchReferenceEncoder() {
  ServerFixture fx("wire_bytes", {}, /*doc0_scenes=*/600);
  auto snapshot = storage::Snapshot::Open(fx.path);
  CHECK_OK(snapshot);
  if (!snapshot.ok()) return;
  xquery::Engine engine(&(*snapshot)->store());
  struct Case {
    const char* text;
    uint32_t doc;
    bool multi_chunk;
  };
  const Case cases[] = {
      {"chain doc=0 ctx=scene steps=select-narrow:word", 0, true},
      {"chain doc=1 ctx=scene steps=select-narrow:word", 1, false},
  };
  for (const Case& c : cases) {
    xquery::ChainQuery query;
    query.doc = c.doc;
    query.context_name = "scene";
    query.steps.push_back({xquery::Axis::kSelectNarrow, false, "word"});
    auto local = engine.EvaluateChain(query);
    CHECK_OK(local);
    if (!local.ok()) return;
    std::string payload;
    server::AppendU32(&payload,
                      static_cast<uint32_t>(local->context_ids.size()));
    for (storage::Pre id : local->context_ids) server::AppendU32(&payload, id);
    server::AppendU32(&payload, static_cast<uint32_t>(local->matches.size()));
    for (const so::IterMatch& match : local->matches) {
      server::AppendU32(&payload, match.iter);
      server::AppendU32(&payload, match.pre);
    }
    CHECK_EQ(payload.size() > server::kChunkBytes, c.multi_chunk);

    // Capture the raw reply: receive until a complete kResultEnd frame.
    const int fd = RawConnect(fx.srv->port());
    SendAll(fd, ReferenceFrame(server::MsgType::kQueryReq, c.text));
    std::string wire;
    size_t parsed = 0;
    bool ended = false;
    while (!ended) {
      char buf[16384];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      CHECK(n > 0);
      if (n <= 0) break;
      wire.append(buf, static_cast<size_t>(n));
      while (wire.size() - parsed >= 5) {
        const size_t length = LoadU32(wire.data() + parsed);
        if (wire.size() - parsed < 4 + length) break;
        ended = static_cast<server::MsgType>(wire[parsed + 4]) ==
                server::MsgType::kResultEnd;
        parsed += 4 + length;
      }
    }
    ::close(fd);
    CHECK_EQ(parsed, wire.size());  // nothing after the end frame
    if (wire.size() < 8) continue;

    std::string header;
    server::AppendU64(&header, 1);  // generation
    header.push_back('\0');         // chain
    server::AppendU64(&header, payload.size());
    server::AppendU64(&header, local->matches.size());
    std::string expected =
        ReferenceFrame(server::MsgType::kResultHeader, header);
    size_t chunks = 0;
    for (size_t off = 0; off < payload.size(); off += server::kChunkBytes) {
      expected += ReferenceFrame(server::MsgType::kResultChunk,
                                 std::string_view(payload).substr(
                                     off, server::kChunkBytes));
      ++chunks;
    }
    CHECK_EQ(chunks > 1, c.multi_chunk);
    // The end frame's execution micros are the server's to choose.
    expected += ReferenceFrame(server::MsgType::kResultEnd,
                               std::string_view(wire).substr(wire.size() - 8));
    CHECK_EQ(wire.size(), expected.size());
    CHECK(wire == expected);
  }
}

// A small reply is whole in the socket once the writer returns: one
// non-blocking recv takes all of it, and it matches the reference.
static void TestSmallReplyIsOneWrite() {
  SocketPair pair;
  const std::string header(25, 'h');
  const std::string payload(300, 'p');
  const std::string end(8, 'e');
  server::FrameWriter writer;
  writer.AddCopied(server::MsgType::kResultHeader, header);
  writer.AddBorrowed(server::MsgType::kResultChunk, payload);
  writer.AddCopied(server::MsgType::kResultEnd, end);
  CHECK_OK(writer.Flush(pair.fds[0]));
  const std::string expected =
      ReferenceFrame(server::MsgType::kResultHeader, header) +
      ReferenceFrame(server::MsgType::kResultChunk, payload) +
      ReferenceFrame(server::MsgType::kResultEnd, end);
  std::string got(expected.size() + 64, '\0');
  const ssize_t n = ::recv(pair.fds[1], got.data(), got.size(), MSG_DONTWAIT);
  CHECK_EQ(n, static_cast<ssize_t>(expected.size()));
  got.resize(n > 0 ? static_cast<size_t>(n) : 0);
  CHECK(got == expected);

  // An oversized body fails the whole reply; nothing is sent.
  const std::string oversized(server::kMaxFrameBytes, 'o');
  writer.AddCopied(server::MsgType::kResultHeader, header);
  writer.AddBorrowed(server::MsgType::kResultChunk, oversized);
  CHECK(writer.Flush(pair.fds[0]).code() == StatusCode::kInvalidArgument);
  CHECK(::recv(pair.fds[1], got.data(), got.size(), MSG_DONTWAIT) < 0);
}

void IgnoreSignal(int) {}

// More frames than one sendmsg takes iovecs, through a socket buffer
// far smaller than the reply, with signals interrupting the blocked
// writer: the writer batches by IOV_MAX, resumes after each short
// write or EINTR, and the reader sees every frame intact.
static void TestWriterBatchesAndResumes() {
  struct sigaction interrupt {};
  interrupt.sa_handler = IgnoreSignal;  // no SA_RESTART: sends return
  sigemptyset(&interrupt.sa_mask);
  struct sigaction previous {};
  CHECK(::sigaction(SIGUSR1, &interrupt, &previous) == 0);

  SocketPair pair;
  constexpr int kFrames = 3000;
  std::vector<std::string> bodies;
  for (int i = 0; i < kFrames; ++i) {
    bodies.push_back(std::string(1 + i % 700, static_cast<char>('a' + i % 26)));
  }
  std::thread writer([&pair, &bodies] {
    server::FrameWriter frames;
    for (const std::string& body : bodies) {
      frames.AddBorrowed(server::MsgType::kResultChunk, body);
    }
    CHECK_OK(frames.Flush(pair.fds[0]));
    ::shutdown(pair.fds[0], SHUT_WR);  // a lost byte ends in EOF, not a hang
  });
  server::FrameReader reader(pair.fds[1]);
  for (int i = 0; i < kFrames; ++i) {
    if (i % 250 == 0) {
      // The writer is blocked on a full socket buffer mid-sendmsg.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ::pthread_kill(writer.native_handle(), SIGUSR1);
    }
    auto frame = reader.Next();
    CHECK_OK(frame);
    if (!frame.ok()) break;
    CHECK(frame->body == bodies[i]);
  }
  ::shutdown(pair.fds[1], SHUT_RD);  // a reader that gave up frees the writer
  writer.join();
  CHECK(::sigaction(SIGUSR1, &previous, nullptr) == 0);
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
  RUN_TEST(TestServerReadsSplitFrames);
  RUN_TEST(TestServerAnswersPipelinedFrames);
  RUN_TEST(TestReaderErrorTaxonomy);
  RUN_TEST(TestServerReaderErrors);
  RUN_TEST(TestReaderBufferBound);
  RUN_TEST(TestReplyBytesMatchReferenceEncoder);
  RUN_TEST(TestSmallReplyIsOneWrite);
  RUN_TEST(TestWriterBatchesAndResumes);
  TEST_MAIN();
}
