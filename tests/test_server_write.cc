// Wire-level coverage of the protocol-2 write path: hello version
// exchange, insert/delete frames landing in the server's delta layer
// and changing query results, compaction publishing a new generation
// whose results are byte-identical, delta counters in the stats frame,
// manual hot-swap dropping pending deltas, unknown-frame handling
// (the forward-compatibility story for old servers), hostile frame
// lengths, WAL boot recovery across a restart, read-only degradation
// under injected WAL failures, threshold-triggered auto-compaction, and
// a connection's engine carried across other clients' writes (rebased)
// or rebuilt after a compaction or swap, equal to a fresh engine.
// Runs under ASan/TSan in the sanitizer CI jobs.
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/query_text.h"
#include "server/server.h"
#include "server/wire.h"
#include "standoff/region_index.h"
#include "storage/sharded_store.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "tests/fault_io.h"
#include "tests/harness.h"
#include "xquery/engine.h"

using namespace standoff;
using storage::Pre;

namespace {

std::string TempPath(const char* name) {
  return std::string("/tmp/standoff_test_") + name + "_" +
         std::to_string(::getpid()) + ".sosnap";
}

std::string TempWalDir(const char* name) {
  return std::string("/tmp/standoff_test_") + name + "_" +
         std::to_string(::getpid()) + ".waldir";
}

void RemoveTree(const std::string& dir) {
  storage::FileIo* io = storage::PosixFileIo();
  auto names = io->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) (void)io->Remove(dir + "/" + name);
  }
  ::rmdir(dir.c_str());
}

// The corpus, one element per line below; pre = position + 2 (pre 0
// is the document node, pre 1 is <play>, attributes consume no pre
// numbers). Bare words are the write targets.
constexpr Pre kScene = 2;
constexpr Pre kSpeech1 = 3;
constexpr Pre kWord1 = 4;      // base region [110,130]
constexpr Pre kBareWord1 = 5;  // no region
constexpr Pre kSpeech2 = 6;
constexpr Pre kWord2 = 7;      // base region [510,530]
constexpr Pre kBareWord2 = 8;  // no region

std::string CorpusXml() {
  return "<play>"
         "<scene start=\"0\" end=\"999\"/>"
         "<speech start=\"100\" end=\"400\"/>"
         "<word start=\"110\" end=\"130\"/>"
         "<word/>"
         "<speech start=\"500\" end=\"800\"/>"
         "<word start=\"510\" end=\"530\"/>"
         "<word/>"
         "</play>";
}

constexpr char kChainQuery[] =
    "chain doc=0 ctx=scene steps=select-narrow:speech,select-narrow:word";

struct WriteFixture {
  explicit WriteFixture(const char* name,
                        const server::ServerConfig& config =
                            server::ServerConfig{}) {
    path = TempPath(name);
    storage::ShardedStore store(1);
    CHECK_OK(store.AddDocumentText("d0", CorpusXml()));
    CHECK_OK(storage::SaveSnapshot(store, path));
    auto started = server::Server::Start(path, config);
    CHECK_OK(started);
    srv = started.MoveValueUnsafe();
  }
  ~WriteFixture() {
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

/// Decodes a query payload into (context_ids, matches).
void DecodePayload(const std::string& payload,
                   std::vector<Pre>* context_ids,
                   std::vector<so::IterMatch>* matches) {
  size_t off = 0;
  auto context_count = server::TakeU32(payload, &off);
  CHECK_OK(context_count);
  for (uint32_t i = 0; context_count.ok() && i < *context_count; ++i) {
    auto id = server::TakeU32(payload, &off);
    CHECK_OK(id);
    if (id.ok()) context_ids->push_back(*id);
  }
  auto match_count = server::TakeU32(payload, &off);
  CHECK_OK(match_count);
  for (uint32_t i = 0; match_count.ok() && i < *match_count; ++i) {
    auto iter = server::TakeU32(payload, &off);
    auto pre = server::TakeU32(payload, &off);
    CHECK_OK(iter);
    CHECK_OK(pre);
    if (iter.ok() && pre.ok()) {
      matches->push_back({*iter, static_cast<Pre>(*pre)});
    }
  }
  CHECK_EQ(off, payload.size());
}

/// The oracle: the same chain evaluated locally over `xml`.
xquery::ChainResult Oracle(const std::string& xml) {
  storage::ShardedStore store(1);
  CHECK_OK(store.AddDocumentText("d0", xml));
  xquery::Engine engine(&store);
  xquery::ChainQuery query;
  query.doc = 0;
  query.context_name = "scene";
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "speech"});
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "word"});
  auto result = engine.EvaluateChain(query);
  CHECK_OK(result);
  return result.ok() ? std::move(*result) : xquery::ChainResult{};
}

void ExpectQueryMatches(server::Client* client, const std::string& oracle_xml) {
  auto reply = client->Query(kChainQuery);
  CHECK_OK(reply);
  if (!reply.ok()) return;
  CHECK(!reply->busy);
  std::vector<Pre> context_ids;
  std::vector<so::IterMatch> matches;
  DecodePayload(reply->payload, &context_ids, &matches);
  const xquery::ChainResult want = Oracle(oracle_xml);
  CHECK(context_ids == want.context_ids);
  if (!(matches == want.matches)) {
    std::fprintf(stderr, "  wire: %zu matches vs oracle %zu\n",
                 matches.size(), want.matches.size());
    CHECK(false);
  }
}

/// `text` over the server's current view, on a fresh engine.
xquery::ChainResult FreshChain(server::Server* srv, const std::string& text) {
  auto parsed = server::ParseQueryText(text);
  CHECK_OK(parsed);
  if (!parsed.ok()) return {};
  auto view = srv->mutable_store()->View();
  xquery::Engine engine(view.get());
  auto result = engine.EvaluateChain(parsed->chain);
  CHECK_OK(result);
  return result.ok() ? std::move(*result) : xquery::ChainResult{};
}

/// Runs `text` on `client` and checks the reply against FreshChain;
/// returns the number of matches.
size_t ExpectFreshReply(server::Client* client, server::Server* srv,
                        const std::string& text) {
  auto reply = client->Query(text);
  CHECK_OK(reply);
  if (!reply.ok()) return 0;
  std::vector<Pre> context_ids;
  std::vector<so::IterMatch> matches;
  DecodePayload(reply->payload, &context_ids, &matches);
  const xquery::ChainResult want = FreshChain(srv, text);
  CHECK(context_ids == want.context_ids);
  CHECK(matches == want.matches);
  return matches.size();
}

}  // namespace

static void TestHelloVersionExchange() {
  WriteFixture fx("write_hello");
  auto client = fx.Connect();
  auto version = client->Hello();
  CHECK_OK(version);
  CHECK_EQ(*version, server::kProtocolVersion);
  CHECK_OK(client->Ping());  // connection stays usable after hello
}

static void TestWriteQueryCompactQuery() {
  WriteFixture fx("write_wqcq");
  auto client = fx.Connect();

  // Baseline: the boot corpus.
  ExpectQueryMatches(client.get(), CorpusXml());

  // Write 1: give bare word 1 a region inside speech 1.
  auto seq1 = client->InsertRegion(0, kBareWord1, 140, 160);
  CHECK_OK(seq1);
  CHECK_EQ(*seq1, uint64_t{1});
  // Write 2: delete word 2's base region.
  auto seq2 = client->DeleteRegions(0, kWord2);
  CHECK_OK(seq2);
  CHECK_EQ(*seq2, uint64_t{2});
  // Write 3: delete-then-reinsert word 1, moved.
  CHECK_OK(client->DeleteRegions(0, kWord1));
  auto seq4 = client->InsertRegion(0, kWord1, 115, 135);
  CHECK_OK(seq4);
  CHECK_EQ(*seq4, uint64_t{4});

  const char* final_xml =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"115\" end=\"135\"/>"
      "<word start=\"140\" end=\"160\"/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word/>"
      "<word/>"
      "</play>";
  ExpectQueryMatches(client.get(), final_xml);

  auto stats = client->Stats();
  CHECK_OK(stats);
  CHECK_EQ(stats->delta_inserts, uint64_t{2});
  CHECK_EQ(stats->delta_deletes, uint64_t{2});
  CHECK_EQ(stats->delta_live_rows, uint64_t{2});
  CHECK_EQ(stats->delta_live_tombstones, uint64_t{2});
  CHECK_EQ(stats->compactions, uint64_t{0});

  // Compact into a new generation; results must be byte-identical.
  const std::string gen2 = TempPath("write_wqcq_gen2");
  auto compacted = client->Compact(gen2);
  CHECK_OK(compacted);
  CHECK_EQ(compacted->generation, uint64_t{2});
  CHECK_EQ(compacted->compacted_seq, uint64_t{4});
  CHECK_EQ(fx.srv->generation(), uint64_t{2});

  ExpectQueryMatches(client.get(), final_xml);
  auto after = client->Stats();
  CHECK_OK(after);
  CHECK_EQ(after->generation, uint64_t{2});
  CHECK_EQ(after->compactions, uint64_t{1});
  CHECK_EQ(after->delta_live_rows, uint64_t{0});
  CHECK_EQ(after->delta_live_tombstones, uint64_t{0});

  // Writes keep working against the compacted base — delete the row
  // the compaction just folded in.
  CHECK_OK(client->DeleteRegions(0, kBareWord1));
  const char* post_compact_xml =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"115\" end=\"135\"/>"
      "<word/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word/>"
      "<word/>"
      "</play>";
  ExpectQueryMatches(client.get(), post_compact_xml);
  std::remove(gen2.c_str());
}

static void TestServerChosenCompactionPath() {
  WriteFixture fx("write_autopath");
  auto client = fx.Connect();
  CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
  auto compacted = client->Compact();  // empty path: server picks one
  CHECK_OK(compacted);
  CHECK_EQ(compacted->generation, uint64_t{2});
  auto stats = client->Stats();
  CHECK_OK(stats);
  CHECK_EQ(stats->compactions, uint64_t{1});
  std::remove((fx.path + ".gen2").c_str());
}

static void TestSwapDropsPendingDeltas() {
  WriteFixture fx("write_swapdrop");
  auto client = fx.Connect();
  CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
  auto stats = client->Stats();
  CHECK_OK(stats);
  CHECK_EQ(stats->delta_live_rows, uint64_t{1});

  // Swapping to an unrelated snapshot (here: the same file, which is
  // how operators roll back) must drop the pending deltas — their ids
  // reference the replaced base.
  auto generation = client->Swap(fx.path);
  CHECK_OK(generation);
  CHECK_EQ(*generation, uint64_t{2});
  auto after = client->Stats();
  CHECK_OK(after);
  CHECK_EQ(after->delta_live_rows, uint64_t{0});
  ExpectQueryMatches(client.get(), CorpusXml());
}

static void TestEngineCarriedAcrossWrites() {
  WriteFixture fx("write_rebase");
  auto reader = fx.Connect();
  auto writer = fx.Connect();
  // The reader's chain reads scene and speech, never word.
  const std::string chain =
      "chain doc=0 ctx=scene steps=select-narrow:speech";
  CHECK_EQ(ExpectFreshReply(reader.get(), fx.srv.get(), chain), size_t{2});
  CHECK_EQ(ExpectFreshReply(reader.get(), fx.srv.get(), chain), size_t{2});
  const server::ServerStats warm = fx.srv->stats();
  CHECK_EQ(warm.engine_rebuilds, uint64_t{1});  // the reader's first query

  // A write to a name the chain does not read: the reader's engine is
  // rebased, and its memo entry survives.
  CHECK_OK(writer->InsertRegion(0, kBareWord1, 140, 160));
  CHECK_EQ(ExpectFreshReply(reader.get(), fx.srv.get(), chain), size_t{2});
  const server::ServerStats carried = fx.srv->stats();
  CHECK_EQ(carried.engine_rebases, warm.engine_rebases + 1);
  CHECK_EQ(carried.engine_rebuilds, warm.engine_rebuilds);
  CHECK(carried.subplan_hits > warm.subplan_hits);

  // A write to a name it reads: the entry drops and the reply shows it.
  CHECK_OK(writer->DeleteRegions(0, kSpeech2));
  CHECK_EQ(ExpectFreshReply(reader.get(), fx.srv.get(), chain), size_t{1});
  CHECK_EQ(fx.srv->stats().engine_rebases, carried.engine_rebases + 1);

  // A compaction and a swap publish new bases: the engine is rebuilt.
  const std::string gen2 = TempPath("write_rebase_gen2");
  CHECK_OK(writer->Compact(gen2));
  CHECK_OK(writer->InsertRegion(0, kBareWord2, 520, 525));
  CHECK_EQ(ExpectFreshReply(reader.get(), fx.srv.get(), chain), size_t{1});
  const server::ServerStats compacted = fx.srv->stats();
  CHECK_EQ(compacted.engine_rebuilds, carried.engine_rebuilds + 1);
  CHECK_OK(writer->Swap(fx.path));
  CHECK_EQ(ExpectFreshReply(reader.get(), fx.srv.get(), chain), size_t{2});
  CHECK_EQ(fx.srv->stats().engine_rebuilds, compacted.engine_rebuilds + 1);
  std::remove(gen2.c_str());
}

static void TestWriteValidationOverWire() {
  WriteFixture fx("write_validation");
  auto client = fx.Connect();

  auto bad_doc = client->InsertRegion(9, kBareWord1, 0, 10);
  CHECK(!bad_doc.ok());
  auto bad_span = client->InsertRegion(0, kBareWord1, 10, 5);
  CHECK(!bad_span.ok());
  auto bad_id = client->InsertRegion(0, 0xFFFFFF, 0, 10);
  CHECK(!bad_id.ok());
  auto bad_fp = client->InsertRegion(0, kBareWord1, 0, 10, "nope");
  CHECK(!bad_fp.ok());
  CHECK(bad_fp.status().code() == StatusCode::kInvalidArgument);
  auto bad_delete = client->DeleteRegions(9, kWord1);
  CHECK(!bad_delete.ok());

  // Truncated write frame: body shorter than the fixed header.
  std::string body;
  server::AppendU32(&body, 0);
  auto frame_status =
      server::WriteFrame(client->fd(), server::MsgType::kInsertRegionReq, body);
  CHECK_OK(frame_status);
  server::FrameReader reader(client->fd());
  auto reply = reader.Next();
  CHECK_OK(reply);
  if (reply.ok()) CHECK(reply->type == server::MsgType::kError);

  // Rejected writes left no trace; the connection stays usable.
  auto stats = client->Stats();
  CHECK_OK(stats);
  CHECK_EQ(stats->delta_inserts, uint64_t{0});
  CHECK_EQ(stats->delta_deletes, uint64_t{0});
  ExpectQueryMatches(client.get(), CorpusXml());
}

// An unknown frame type gets kError and the connection survives —
// exactly what a protocol-2 client sees from a pre-write server, which
// is why Hello()'s error is a usable capability probe.
static void TestUnknownFrameTypeIsClientSafe() {
  WriteFixture fx("write_unknown");
  auto client = fx.Connect();
  CHECK_OK(server::WriteFrame(client->fd(),
                              static_cast<server::MsgType>(0x7F), "junk"));
  server::FrameReader reader(client->fd());
  auto reply = reader.Next();
  CHECK_OK(reply);
  if (reply.ok()) CHECK(reply->type == server::MsgType::kError);
  CHECK_OK(client->Ping());
  ExpectQueryMatches(client.get(), CorpusXml());
}

// A length prefix past kMaxFrameBytes must be refused BEFORE any
// allocation: the server answers kError with the cap diagnostic and
// drops the connection; the process itself shrugs it off.
static void TestHostileFrameLengthIsRejected() {
  WriteFixture fx("write_hostile");
  auto client = fx.Connect();
  const uint8_t huge[4] = {0, 0, 0, 0x10};  // announces 256 MiB
  CHECK_EQ(::send(client->fd(), huge, sizeof huge, 0),
           static_cast<ssize_t>(sizeof huge));
  server::FrameReader reader(client->fd());
  auto reply = reader.Next();
  CHECK_OK(reply);
  if (reply.ok()) CHECK(reply->type == server::MsgType::kError);
  auto eof = reader.Next();
  CHECK(!eof.ok());  // the hostile connection is closed

  // Zero-length frames die the same way.
  auto client2 = fx.Connect();
  const uint8_t zero[4] = {0, 0, 0, 0};
  CHECK_EQ(::send(client2->fd(), zero, sizeof zero, 0),
           static_cast<ssize_t>(sizeof zero));
  server::FrameReader reader2(client2->fd());
  auto reply2 = reader2.Next();
  CHECK_OK(reply2);
  if (reply2.ok()) CHECK(reply2->type == server::MsgType::kError);

  // The server survives hostile peers: fresh connections work.
  auto client3 = fx.Connect();
  CHECK_OK(client3->Ping());
  ExpectQueryMatches(client3.get(), CorpusXml());
}

// Boot recovery (DESIGN.md §16): acknowledged writes survive a restart
// that never checkpointed — the delta state lives only in the WAL.
static void TestWalRestartRecoveryOverWire() {
  const std::string wal_dir = TempWalDir("write_walrestart");
  RemoveTree(wal_dir);
  server::ServerConfig config;
  config.wal_dir = wal_dir;
  WriteFixture fx("write_walrestart", config);
  {
    auto client = fx.Connect();
    CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
    CHECK_OK(client->DeleteRegions(0, kWord2));
    auto stats = client->Stats();
    CHECK_OK(stats);
    if (stats.ok()) {
      CHECK_EQ(stats->wal_appends, uint64_t{2});
      CHECK(stats->wal_fsyncs >= uint64_t{2});  // fsync=always
      CHECK_EQ(stats->wal_replayed_ops, uint64_t{0});
    }
  }
  // Tear the server down WITHOUT compacting and boot a fresh one on
  // the same snapshot + --wal-dir.
  fx.srv->Stop();
  fx.srv.reset();
  auto restarted = server::Server::Start(fx.path, config);
  CHECK_OK(restarted);
  if (!restarted.ok()) return;
  fx.srv = restarted.MoveValueUnsafe();

  auto client = fx.Connect();
  auto stats = client->Stats();
  CHECK_OK(stats);
  if (stats.ok()) {
    CHECK_EQ(stats->wal_replayed_ops, uint64_t{2});
    CHECK_EQ(stats->wal_truncated_bytes, uint64_t{0});
    CHECK_EQ(stats->delta_live_rows, uint64_t{1});
    CHECK_EQ(stats->delta_live_tombstones, uint64_t{1});
  }
  const char* recovered_xml =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"110\" end=\"130\"/>"
      "<word start=\"140\" end=\"160\"/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word/>"
      "<word/>"
      "</play>";
  ExpectQueryMatches(client.get(), recovered_xml);
  // New writes continue above the recovered sequence numbers.
  auto seq = client->InsertRegion(0, kBareWord2, 540, 560);
  CHECK_OK(seq);
  if (seq.ok()) CHECK_EQ(*seq, uint64_t{3});
  RemoveTree(wal_dir);
}

// An injected fsync failure mid-flight: the write is refused with the
// transient kUnavailable (never acked, never applied), the store
// latches read-only, and queries keep serving the pre-failure state.
static void TestWalFailureDegradesToReadOnly() {
  const std::string wal_dir = TempWalDir("write_walfail");
  RemoveTree(wal_dir);
  faultio::FaultFileIo fault;  // outlives the fixture below
  server::ServerConfig config;
  config.wal_dir = wal_dir;
  config.wal_io = &fault;
  WriteFixture fx("write_walfail", config);
  auto client = fx.Connect();
  CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));

  fault.set_fail_syncs_after(fault.syncs());  // the next fsync fails
  // The eating-it write reports the root cause; the ack never happens.
  auto failed = client->InsertRegion(0, kBareWord2, 540, 560);
  CHECK(!failed.ok());
  // Sticky: every later write fails fast with the transient code.
  auto later = client->DeleteRegions(0, kWord2);
  CHECK(!later.ok());
  CHECK(later.status().code() == StatusCode::kUnavailable);

  // Reads are untouched: the acknowledged prefix keeps serving.
  const char* acked_xml =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"110\" end=\"130\"/>"
      "<word start=\"140\" end=\"160\"/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word start=\"510\" end=\"530\"/>"
      "<word/>"
      "</play>";
  ExpectQueryMatches(client.get(), acked_xml);
  auto stats = client->Stats();
  CHECK_OK(stats);
  if (stats.ok()) {
    CHECK_EQ(stats->delta_inserts, uint64_t{1});  // the failed op left none
    CHECK_EQ(stats->queries_ok > 0, true);
  }
  RemoveTree(wal_dir);
}

// Threshold-triggered auto-compaction: crossing the live-rows bound
// schedules one background compaction that publishes a new generation
// and drains the delta, all without a client Compact frame.
static void TestAutoCompactionOverWire() {
  server::ServerConfig config;
  config.compact_live_rows_threshold = 2;
  WriteFixture fx("write_autocompact", config);
  auto client = fx.Connect();
  CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
  CHECK_OK(client->InsertRegion(0, kBareWord2, 540, 560));  // crosses 2

  server::ServerStats stats;
  for (int i = 0; i < 1000; ++i) {
    auto got = client->Stats();
    CHECK_OK(got);
    if (!got.ok()) return;
    stats = *got;
    if (stats.auto_compactions >= 1) break;
    ::usleep(10 * 1000);
  }
  CHECK_EQ(stats.auto_compactions, uint64_t{1});
  CHECK_EQ(stats.compactions, uint64_t{1});
  CHECK(stats.generation >= 2);
  CHECK_EQ(stats.delta_live_rows, uint64_t{0});

  // The compacted generation serves the same merged state.
  const char* compacted_xml =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"110\" end=\"130\"/>"
      "<word start=\"140\" end=\"160\"/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word start=\"510\" end=\"530\"/>"
      "<word start=\"540\" end=\"560\"/>"
      "</play>";
  ExpectQueryMatches(client.get(), compacted_xml);
  std::remove((fx.path + ".gen2").c_str());
}

int main() {
  RUN_TEST(TestHelloVersionExchange);
  RUN_TEST(TestWriteQueryCompactQuery);
  RUN_TEST(TestServerChosenCompactionPath);
  RUN_TEST(TestSwapDropsPendingDeltas);
  RUN_TEST(TestEngineCarriedAcrossWrites);
  RUN_TEST(TestWriteValidationOverWire);
  RUN_TEST(TestUnknownFrameTypeIsClientSafe);
  RUN_TEST(TestHostileFrameLengthIsRejected);
  RUN_TEST(TestWalRestartRecoveryOverWire);
  RUN_TEST(TestWalFailureDegradesToReadOnly);
  RUN_TEST(TestAutoCompactionOverWire);
  TEST_MAIN();
}
