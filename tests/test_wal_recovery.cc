// Crash-safety proof obligations for the delta WAL (DESIGN.md §16):
//
//   * record codec: roundtrip, torn at every byte, bit flips;
//   * crash-kill matrix: a forked writer SIGKILLs itself between every
//     pair of operations (fsync=always); recovery must equal the
//     acknowledged-prefix oracle byte for byte;
//   * torn-tail fuzz: the segment file truncated at EVERY byte offset
//     and bit-flipped at random positions; replay must recover exactly
//     the record prefix below the damage, truncate the file in place,
//     and be idempotent;
//   * fault injection: fsync failures and short writes latch the store
//     read-only without publishing the failed op, and the torn tail
//     they leave on disk recovers to the acknowledged prefix;
//   * replay → compact → replay: rotation pins the new segment to the
//     compacted snapshot and retires folded segments;
//   * a writer pair races the threshold-triggered auto-compactor with
//     the WAL enabled (the TSan leg), then the whole run is recovered
//     from disk and compared against the live store.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "standoff/region_index.h"
#include "storage/delta.h"
#include "storage/sharded_store.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "tests/fault_io.h"
#include "tests/harness.h"
#include "tests/oracle.h"

using namespace standoff;
using storage::Pre;
using storage::Wal;
using storage::WalDecode;
using storage::WalOptions;
using storage::WalRecord;
using storage::WalRecoveryResult;
using storage::WalSyncPolicy;

namespace {

constexpr int kIds = 8;

std::string TempDir(const std::string& name) {
  return "/tmp/standoff_wal_" + name + "_" + std::to_string(::getpid());
}

std::string TempSnap(const std::string& name) {
  return "/tmp/standoff_wal_" + name + "_" + std::to_string(::getpid()) +
         ".sosnap";
}

void RemoveDirRecursive(const std::string& dir) {
  storage::FileIo* io = storage::PosixFileIo();
  auto names = io->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) (void)io->Remove(dir + "/" + name);
  }
  ::rmdir(dir.c_str());
}

/// One doc; ids 2..2+kIds-1 are <w> elements, the first two with base
/// regions (tombstone targets), the rest bare.
std::string CorpusXml() {
  std::string xml = "<doc>";
  for (int k = 0; k < kIds; ++k) {
    if (k < 2) {
      xml += "<w start=\"" + std::to_string(k * 1000) + "\" end=\"" +
             std::to_string(k * 1000 + 100) + "\"/>";
    } else {
      xml += "<w/>";
    }
  }
  xml += "</doc>";
  return xml;
}

// Pre 0 is the document node, pre 1 is <doc>; the k-th <w> follows.
Pre IdOf(int k) { return static_cast<Pre>(2 + k); }

std::shared_ptr<storage::ShardedStore> MakeBase() {
  auto base = std::make_shared<storage::ShardedStore>(1);
  CHECK_OK(base->AddDocumentText("d0", CorpusXml()));
  return base;
}

struct ScriptOp {
  bool is_insert = false;
  Pre id = 0;
  int64_t start = 0, end = 0;
};

/// Deterministic mixed insert/delete script (~1/4 deletes).
std::vector<ScriptOp> Script(int n, uint64_t seed = 0xDECAF) {
  Rng rng(seed);
  std::vector<ScriptOp> ops;
  for (int i = 0; i < n; ++i) {
    ScriptOp op;
    op.id = IdOf(static_cast<int>(rng.UniformRange(0, kIds - 1)));
    if (rng.UniformRange(0, 3) == 0) {
      op.is_insert = false;
    } else {
      op.is_insert = true;
      op.start = rng.UniformRange(0, 5000);
      op.end = op.start + rng.UniformRange(0, 200);
    }
    ops.push_back(op);
  }
  return ops;
}

Status ApplyOp(storage::MutableStore* store, const ScriptOp& op,
               const std::string& fp) {
  return op.is_insert
             ? store->InsertRegion(0, fp, op.start, op.end, op.id).status()
             : store->DeleteRegions(0, fp, op.id).status();
}

/// The merged (base ⊎ delta) entries of doc 0 under the default config.
std::vector<so::RegionEntry> MergedEntries(const storage::MutableStore& s) {
  auto view = s.View();
  so::RegionIndexCache cache;
  auto merged = cache.Get(*view, 0, so::StandoffConfig{});
  CHECK_OK(merged);
  return merged.ok() ? test::Rows(**merged) : std::vector<so::RegionEntry>{};
}

/// The op-log oracle: a fresh store with the acked prefix applied live.
std::vector<so::RegionEntry> OracleEntries(const std::vector<ScriptOp>& ops,
                                           size_t count,
                                           const std::string& fp) {
  storage::MutableStore oracle(MakeBase());
  for (size_t i = 0; i < count; ++i) CHECK_OK(ApplyOp(&oracle, ops[i], fp));
  return MergedEntries(oracle);
}

WalRecord RecordOf(const ScriptOp& op, uint64_t seq, const std::string& fp) {
  WalRecord record;
  record.op = op.is_insert ? WalRecord::Op::kInsert : WalRecord::Op::kDelete;
  record.seq = seq;
  record.doc = 0;
  record.id = op.id;
  if (op.is_insert) {
    record.start = op.start;
    record.end = op.end;
  }
  record.fingerprint = fp;
  return record;
}

}  // namespace

// ---------------------------------------------------------------------------

static void TestRecordCodec() {
  const std::string fp = so::ConfigFingerprint(so::StandoffConfig{});
  std::vector<WalRecord> records;
  records.push_back(RecordOf({true, IdOf(0), -5, 12}, 1, fp));
  records.push_back(RecordOf({false, IdOf(3), 0, 0}, 2, ""));
  records.push_back(RecordOf({true, IdOf(7), 100, 100}, 3, "cfg:odd\xff"));

  std::string buffer;
  std::vector<size_t> bounds{0};  // bounds[i] = offset of record i
  for (const WalRecord& r : records) {
    EncodeWalRecord(r, &buffer);
    bounds.push_back(buffer.size());
  }

  // Roundtrip.
  size_t off = 0;
  for (const WalRecord& want : records) {
    WalRecord got;
    CHECK(DecodeWalRecord(buffer, &off, &got, 1 << 20) == WalDecode::kOk);
    CHECK(got == want);
  }
  WalRecord sentinel;
  CHECK(DecodeWalRecord(buffer, &off, &sentinel, 1 << 20) == WalDecode::kEnd);

  // Truncation at every byte: full records below the cut decode; the
  // cut is kEnd exactly on a record boundary, kCorrupt anywhere else.
  for (size_t cut = 0; cut <= buffer.size(); ++cut) {
    const std::string_view prefix(buffer.data(), cut);
    size_t pos = 0;
    size_t decoded = 0;
    WalDecode verdict;
    for (;;) {
      WalRecord got;
      verdict = DecodeWalRecord(prefix, &pos, &got, 1 << 20);
      if (verdict != WalDecode::kOk) break;
      CHECK(got == records[decoded]);
      ++decoded;
    }
    size_t expect = 0;
    while (expect < records.size() && bounds[expect + 1] <= cut) ++expect;
    CHECK_EQ(decoded, expect);
    CHECK(verdict ==
          (cut == bounds[decoded] ? WalDecode::kEnd : WalDecode::kCorrupt));
  }

  // Bit flips at every byte: the containing record decodes kCorrupt,
  // everything before it cleanly (no aliasing with a 64-bit checksum).
  for (size_t pos = 0; pos < buffer.size(); ++pos) {
    for (int bit : {0, 7}) {
      std::string mutated = buffer;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      size_t victim = 0;
      while (bounds[victim + 1] <= pos) ++victim;
      size_t p = 0;
      size_t decoded = 0;
      for (;;) {
        WalRecord got;
        const WalDecode verdict = DecodeWalRecord(mutated, &p, &got, 1 << 20);
        if (verdict != WalDecode::kOk) {
          CHECK(verdict == WalDecode::kCorrupt);
          break;
        }
        CHECK(decoded < victim);
        if (decoded >= victim) break;
        CHECK(got == records[decoded]);
        ++decoded;
      }
      CHECK_EQ(decoded, victim);
    }
  }
}

static void TestReplayMissingAndEmptyDir() {
  WalOptions options;
  options.dir = TempDir("missing");
  RemoveDirRecursive(options.dir);
  auto recovery = ReplayWal(options);
  CHECK_OK(recovery);
  if (recovery.ok()) {
    CHECK_EQ(recovery->ops.size(), size_t{0});
    CHECK_EQ(recovery->next_segment_index, uint64_t{1});
    CHECK_EQ(recovery->max_seq, uint64_t{0});
    CHECK(recovery->base_path.empty());
  }
  // An existing-but-empty dir is the same empty log.
  CHECK_OK(storage::PosixFileIo()->CreateDir(options.dir));
  recovery = ReplayWal(options);
  CHECK_OK(recovery);
  if (recovery.ok()) CHECK_EQ(recovery->ops.size(), size_t{0});
  RemoveDirRecursive(options.dir);
}

// ---------------------------------------------------------------------------
// Crash-kill matrix: fork a writer, SIGKILL it between every pair of
// ops, recover, and demand byte-identity with the acked-prefix oracle.

static void TestCrashKillMatrix() {
  const std::string fp = so::ConfigFingerprint(so::StandoffConfig{});
  constexpr int kOps = 10;
  const std::vector<ScriptOp> ops = Script(kOps);

  for (int crash_after = 0; crash_after <= kOps; ++crash_after) {
    const std::string dir = TempDir("kill" + std::to_string(crash_after));
    RemoveDirRecursive(dir);

    int pipefd[2];
    CHECK_EQ(::pipe(pipefd), 0);
    const pid_t pid = ::fork();
    CHECK(pid >= 0);
    if (pid == 0) {
      // Child: real files, real fsyncs, fsync=always — every ack byte
      // the parent reads off the pipe is a durability promise.
      ::close(pipefd[0]);
      WalOptions options;
      options.dir = dir;
      options.sync = WalSyncPolicy::kAlways;
      auto wal = Wal::Open(options, WalRecoveryResult{});
      if (!wal.ok()) ::_exit(9);
      storage::MutableStore store(MakeBase());
      store.AttachWal(wal->get());
      for (int i = 0; i < kOps; ++i) {
        if (i == crash_after) ::raise(SIGKILL);
        if (!ApplyOp(&store, ops[static_cast<size_t>(i)], fp).ok()) {
          ::_exit(9);
        }
        const char ack = 1;
        if (::write(pipefd[1], &ack, 1) != 1) ::_exit(9);
      }
      ::_exit(0);
    }
    ::close(pipefd[1]);
    size_t acked = 0;
    char byte = 0;
    while (::read(pipefd[0], &byte, 1) == 1) ++acked;
    ::close(pipefd[0]);
    int wstatus = 0;
    CHECK_EQ(::waitpid(pid, &wstatus, 0), pid);
    if (crash_after < kOps) {
      CHECK(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL);
    } else {
      CHECK(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
    }
    CHECK_EQ(acked, static_cast<size_t>(crash_after));

    // Recover and compare against the oracle at the acked prefix.
    WalOptions options;
    options.dir = dir;
    auto recovery = ReplayWal(options);
    CHECK_OK(recovery);
    if (recovery.ok()) {
      CHECK_EQ(recovery->ops.size(), acked);
      for (size_t i = 0; i < recovery->ops.size(); ++i) {
        CHECK(recovery->ops[i] == RecordOf(ops[i], i + 1, fp));
      }
      storage::MutableStore restored(MakeBase());
      CHECK_OK(restored.Restore(*recovery));
      CHECK_EQ(restored.sequence(), static_cast<uint64_t>(acked));
      CHECK(MergedEntries(restored) == OracleEntries(ops, acked, fp));
    }
    RemoveDirRecursive(dir);
  }
}

// ---------------------------------------------------------------------------
// Torn-tail fuzz: truncate the one segment at EVERY byte, flip bits at
// random offsets; recovery must serve exactly the intact record prefix
// and physically truncate the tail (idempotent replay).

static void TestTornTailFuzz() {
  const std::string fp = so::ConfigFingerprint(so::StandoffConfig{});
  constexpr int kOps = 24;
  const std::vector<ScriptOp> ops = Script(kOps, 0xF00D);

  // Build the golden segment: write-through (kEveryNMs with a huge
  // interval) so every record is in the file, no per-record fsync.
  const std::string golden_dir = TempDir("fuzz_golden");
  RemoveDirRecursive(golden_dir);
  {
    WalOptions options;
    options.dir = golden_dir;
    options.sync = WalSyncPolicy::kEveryNMs;
    options.sync_interval_ms = 1e9;
    auto wal = Wal::Open(options, WalRecoveryResult{});
    CHECK_OK(wal);
    if (!wal.ok()) return;
    storage::MutableStore store(MakeBase());
    store.AttachWal(wal->get());
    for (const ScriptOp& op : ops) CHECK_OK(ApplyOp(&store, op, fp));
  }
  const std::string golden_path = storage::WalSegmentPath(golden_dir, 1);
  auto golden = storage::PosixFileIo()->ReadFileToString(golden_path);
  CHECK_OK(golden);
  if (!golden.ok()) return;

  // Record boundaries: frames sit back to back after the header, and
  // every frame is reproducible from the op script.
  std::vector<size_t> bounds;  // bounds[i] = offset of record i; +1 = end
  {
    std::vector<size_t> sizes;
    size_t frames = 0;
    for (int i = 0; i < kOps; ++i) {
      std::string one;
      EncodeWalRecord(RecordOf(ops[static_cast<size_t>(i)], i + 1, fp), &one);
      sizes.push_back(one.size());
      frames += one.size();
    }
    CHECK(golden->size() > frames);
    size_t off = golden->size() - frames;  // == segment header size
    for (size_t s : sizes) {
      bounds.push_back(off);
      off += s;
    }
    bounds.push_back(off);
    CHECK_EQ(off, golden->size());
  }
  const size_t header_size = bounds.front();

  const std::string dir = TempDir("fuzz");
  storage::FileIo* io = storage::PosixFileIo();
  auto plant = [&](std::string_view bytes) {
    RemoveDirRecursive(dir);
    CHECK_OK(io->CreateDir(dir));
    auto file = io->OpenForAppend(storage::WalSegmentPath(dir, 1));
    CHECK_OK(file);
    if (!file.ok()) return false;
    CHECK_OK((*file)->Append(bytes));
    CHECK_OK((*file)->Close());
    return true;
  };
  auto check_recovery = [&](const WalRecoveryResult& r, size_t intact,
                            uint64_t want_truncated) {
    CHECK_EQ(r.ops.size(), intact);
    for (size_t i = 0; i < r.ops.size() && i < intact; ++i) {
      CHECK(r.ops[i] == RecordOf(ops[i], i + 1, fp));
    }
    CHECK_EQ(r.truncated_bytes, want_truncated);
  };

  // Every truncation point.
  for (size_t cut = 0; cut <= golden->size(); ++cut) {
    if (!plant(std::string_view(*golden).substr(0, cut))) continue;
    const std::string path = storage::WalSegmentPath(dir, 1);
    WalOptions options;
    options.dir = dir;
    auto recovery = ReplayWal(options);
    CHECK_OK(recovery);
    if (!recovery.ok()) continue;
    if (cut < header_size) {
      // Torn header: the segment never durably opened; whole file drops.
      check_recovery(*recovery, 0, cut);
      CHECK(!io->ReadFileToString(path).ok());
    } else {
      size_t intact = 0;
      while (intact < static_cast<size_t>(kOps) && bounds[intact + 1] <= cut) {
        ++intact;
      }
      check_recovery(*recovery, intact, cut - bounds[intact]);
      // Physical truncation to the valid prefix…
      auto after = io->ReadFileToString(path);
      CHECK_OK(after);
      if (after.ok()) CHECK_EQ(after->size(), bounds[intact]);
    }
    // …which makes a second replay clean and identical.
    auto again = ReplayWal(options);
    CHECK_OK(again);
    if (again.ok()) {
      CHECK_EQ(again->truncated_bytes, uint64_t{0});
      CHECK_EQ(again->ops.size(), recovery->ops.size());
    }
    // Sampled full restore against the op-log oracle.
    if (cut % 7 == 0 && cut >= header_size) {
      storage::MutableStore restored(MakeBase());
      CHECK_OK(restored.Restore(*recovery));
      CHECK(MergedEntries(restored) ==
            OracleEntries(ops, recovery->ops.size(), fp));
    }
  }

  // Random bit flips: recovery stops exactly at the damaged record.
  Rng rng(0xB17F11B);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t pos = static_cast<size_t>(
        rng.UniformRange(0, static_cast<int64_t>(golden->size()) - 1));
    const int bit = static_cast<int>(rng.UniformRange(0, 7));
    std::string mutated = *golden;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
    if (!plant(mutated)) continue;
    WalOptions options;
    options.dir = dir;
    auto recovery = ReplayWal(options);
    CHECK_OK(recovery);
    if (!recovery.ok()) continue;
    if (pos < header_size) {
      // Header damage drops the whole segment.
      check_recovery(*recovery, 0, mutated.size());
    } else {
      size_t victim = 0;
      while (bounds[victim + 1] <= pos) ++victim;
      check_recovery(*recovery, victim, mutated.size() - bounds[victim]);
    }
  }
  RemoveDirRecursive(dir);
  RemoveDirRecursive(golden_dir);
}

// ---------------------------------------------------------------------------
// Fault injection: fsync failure / short write latch read-only, the
// failed op is never published, and the on-disk prefix still recovers.

static void TestFsyncFailureLatchesReadOnly() {
  const std::string fp = so::ConfigFingerprint(so::StandoffConfig{});
  const std::string dir = TempDir("fsyncfail");
  RemoveDirRecursive(dir);
  faultio::FaultFileIo fault;
  WalOptions options;
  options.dir = dir;
  options.sync = WalSyncPolicy::kAlways;
  options.io = &fault;
  auto wal = Wal::Open(options, WalRecoveryResult{});
  CHECK_OK(wal);  // the segment-header fsync is sync #1
  if (!wal.ok()) return;
  fault.set_fail_syncs_after(1);

  storage::MutableStore store(MakeBase());
  store.AttachWal(wal->get());
  const auto first = store.InsertRegion(0, fp, 1, 2, IdOf(0));
  CHECK(!first.ok());
  // Not published: no seq burned, no counter, reads untouched.
  CHECK_EQ(store.sequence(), uint64_t{0});
  CHECK_EQ(store.stats().inserts_total, uint64_t{0});
  CHECK((*wal)->failed());
  CHECK(MergedEntries(store) == OracleEntries({}, 0, fp));
  // Sticky: the next write fails fast with the transient code.
  const auto second = store.DeleteRegions(0, fp, IdOf(0));
  CHECK(!second.ok());
  CHECK(second.status().code() == StatusCode::kUnavailable);
  wal->reset();
  RemoveDirRecursive(dir);
}

static void TestShortWriteTornTailRecovers() {
  const std::string fp = so::ConfigFingerprint(so::StandoffConfig{});
  const std::string dir = TempDir("shortwrite");
  RemoveDirRecursive(dir);
  faultio::FaultFileIo fault;
  WalOptions options;
  options.dir = dir;
  options.sync = WalSyncPolicy::kAlways;
  options.io = &fault;
  auto wal = Wal::Open(options, WalRecoveryResult{});
  CHECK_OK(wal);
  if (!wal.ok()) return;

  storage::MutableStore store(MakeBase());
  store.AttachWal(wal->get());
  CHECK_OK(store.InsertRegion(0, fp, 10, 20, IdOf(2)));
  // The next record gets 7 bytes into the file, then the device fails.
  fault.set_fail_appends_after_bytes(fault.appended_bytes() + 7);
  const auto failed = store.InsertRegion(0, fp, 30, 40, IdOf(3));
  CHECK(!failed.ok());
  CHECK_EQ(store.sequence(), uint64_t{1});
  CHECK((*wal)->failed());
  wal->reset();

  // Recovery: the torn 7-byte tail truncates, the acked op survives.
  WalOptions replay_options;
  replay_options.dir = dir;
  auto recovery = ReplayWal(replay_options);
  CHECK_OK(recovery);
  if (recovery.ok()) {
    CHECK_EQ(recovery->ops.size(), size_t{1});
    CHECK_EQ(recovery->truncated_bytes, uint64_t{7});
    storage::MutableStore restored(MakeBase());
    CHECK_OK(restored.Restore(*recovery));
    const std::vector<ScriptOp> one{{true, IdOf(2), 10, 20}};
    CHECK(MergedEntries(restored) == OracleEntries(one, 1, fp));
  }
  RemoveDirRecursive(dir);
}

// ---------------------------------------------------------------------------
// Replay → compact → replay: rotation pins the fresh segment to the
// compacted snapshot, retires folded segments, and the next recovery
// opens the compacted base and replays only the tail.

static void TestReplayCompactReplayWithRetirement() {
  const std::string fp = so::ConfigFingerprint(so::StandoffConfig{});
  const std::string dir = TempDir("rotate");
  const std::string snap = TempSnap("rotate");
  RemoveDirRecursive(dir);
  storage::FileIo* io = storage::PosixFileIo();
  const std::vector<ScriptOp> ops = Script(10, 0x107A7E);

  // Boot 1: six ops into segment 1.
  {
    WalOptions options;
    options.dir = dir;
    auto wal = Wal::Open(options, WalRecoveryResult{});
    CHECK_OK(wal);
    if (!wal.ok()) return;
    storage::MutableStore store(MakeBase());
    store.AttachWal(wal->get());
    for (int i = 0; i < 6; ++i) CHECK_OK(ApplyOp(&store, ops[i], fp));
  }

  // Boot 2: recover, write two more, compact + adopt (rotates), write
  // two more into the rotated segment.
  std::vector<so::RegionEntry> live_entries;
  uint64_t live_seq = 0;
  {
    WalOptions options;
    options.dir = dir;
    auto recovery = ReplayWal(options);
    CHECK_OK(recovery);
    if (!recovery.ok()) return;
    CHECK_EQ(recovery->ops.size(), size_t{6});
    CHECK_EQ(recovery->next_segment_index, uint64_t{2});
    storage::MutableStore store(MakeBase());
    CHECK_OK(store.Restore(*recovery));
    auto wal = Wal::Open(options, *recovery);
    CHECK_OK(wal);
    if (!wal.ok()) return;
    store.AttachWal(wal->get());
    for (int i = 6; i < 8; ++i) CHECK_OK(ApplyOp(&store, ops[i], fp));

    uint64_t frozen = 0;
    CHECK_OK(store.CompactToSnapshot(snap, nullptr, &frozen));
    CHECK_EQ(frozen, uint64_t{8});
    auto snapshot = storage::Snapshot::Open(snap);
    CHECK_OK(snapshot);
    if (!snapshot.ok()) return;
    store.AdoptCompacted(frozen, (*snapshot)->shared_store(), snap);

    const storage::WalStats stats = (*wal)->stats();
    CHECK_EQ(stats.rotations, uint64_t{1});
    // Segments 1 (max seq 6) and 2 (max seq 8) are both folded.
    CHECK_EQ(stats.retired_segments, uint64_t{2});
    CHECK_EQ((*wal)->current_segment_index(), uint64_t{3});
    auto names = io->ListDir(dir);
    CHECK_OK(names);
    if (names.ok()) CHECK_EQ(names->size(), size_t{1});

    for (int i = 8; i < 10; ++i) CHECK_OK(ApplyOp(&store, ops[i], fp));
    live_entries = MergedEntries(store);
    live_seq = store.sequence();
  }

  // Boot 3: recovery must open the COMPACTED base and replay only the
  // two post-freeze ops — byte-identical to the live store's end state.
  {
    WalOptions options;
    options.dir = dir;
    auto recovery = ReplayWal(options);
    CHECK_OK(recovery);
    if (!recovery.ok()) return;
    CHECK_EQ(recovery->base_path, snap);
    CHECK_EQ(recovery->base_seq, uint64_t{8});
    CHECK_EQ(recovery->ops.size(), size_t{2});
    auto snapshot = storage::Snapshot::Open(recovery->base_path);
    CHECK_OK(snapshot);
    if (!snapshot.ok()) return;
    storage::MutableStore restored((*snapshot)->shared_store());
    CHECK_OK(restored.Restore(*recovery));
    CHECK_EQ(restored.sequence(), live_seq);
    CHECK(MergedEntries(restored) == live_entries);
  }
  RemoveDirRecursive(dir);
  std::remove(snap.c_str());
}

// ---------------------------------------------------------------------------
// TSan leg: writers race the threshold-triggered auto-compactor with
// the WAL on; the settled store AND its disk recovery match the oracle.

static void TestWriterRacesAutoCompactorWithWal() {
  const std::string fp = so::ConfigFingerprint(so::StandoffConfig{});
  const std::string dir = TempDir("race");
  RemoveDirRecursive(dir);
  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 60;

  // Disjoint id ranges per writer (kIds split in half), so the settled
  // state is each thread's script replayed in program order.
  auto writer_script = [](int w) {
    Rng rng(0xAB1DE + static_cast<uint64_t>(w));
    std::vector<ScriptOp> ops;
    const int half = kIds / 2;
    for (int i = 0; i < kOpsPerWriter; ++i) {
      ScriptOp op;
      op.id = IdOf(w * half + static_cast<int>(rng.UniformRange(0, half - 1)));
      if (rng.UniformRange(0, 3) == 0) {
        op.is_insert = false;
      } else {
        op.is_insert = true;
        op.start = rng.UniformRange(0, 5000);
        op.end = op.start + rng.UniformRange(0, 200);
      }
      ops.push_back(op);
    }
    return ops;
  };

  std::vector<so::RegionEntry> live_entries;
  std::atomic<int> failures{0};
  std::atomic<int> generations{0};
  {
    WalOptions options;
    options.dir = dir;
    options.sync = WalSyncPolicy::kEveryNMs;
    options.sync_interval_ms = 1.0;
    auto wal = Wal::Open(options, WalRecoveryResult{});
    CHECK_OK(wal);
    if (!wal.ok()) return;
    storage::MutableStore store(MakeBase());
    store.AttachWal(wal->get());

    {
      ThreadPool pool(2);
      // The auto-compactor: the server's compact-reopen-adopt dance on
      // a pool task. Serial merges (null pool) — the pool's slots
      // belong to compaction tasks, not ParallelFor helpers.
      store.SetAutoCompact(24, [&] {
        pool.Submit([&] {
          const int gen = generations.fetch_add(1) + 1;
          const std::string path = TempSnap("race_gen" + std::to_string(gen));
          uint64_t frozen = 0;
          if (!store.CompactToSnapshot(path, nullptr, &frozen).ok()) {
            failures.fetch_add(1);
            store.AutoCompactDone();
            return;
          }
          auto snapshot = storage::Snapshot::Open(path);
          if (!snapshot.ok()) {
            failures.fetch_add(1);
            store.AutoCompactDone();
            return;
          }
          store.AdoptCompacted(frozen, (*snapshot)->shared_store(), path);
        });
      });

      std::vector<std::thread> writers;
      for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&store, &failures, &writer_script, &fp, w] {
          for (const ScriptOp& op : writer_script(w)) {
            if (!ApplyOp(&store, op, fp).ok()) failures.fetch_add(1);
          }
        });
      }
      for (auto& t : writers) t.join();
      // The pool destructor drains any in-flight compaction.
    }
    CHECK_EQ(failures.load(), 0);
    CHECK(store.stats().auto_compact_triggers > 0);
    CHECK(!(*wal)->failed());
    live_entries = MergedEntries(store);

    // The oracle: per-id replay over each writer's program order.
    std::map<Pre, std::vector<so::RegionEntry>> per_id;
    for (int k = 0; k < 2; ++k) {
      per_id[IdOf(k)].push_back({k * 1000, k * 1000 + 100, IdOf(k)});
    }
    for (int w = 0; w < kWriters; ++w) {
      for (const ScriptOp& op : writer_script(w)) {
        if (op.is_insert) {
          per_id[op.id].push_back({op.start, op.end, op.id});
        } else {
          per_id[op.id].clear();
        }
      }
    }
    std::vector<so::RegionEntry> oracle_rows;
    for (const auto& [id, rows] : per_id) {
      oracle_rows.insert(oracle_rows.end(), rows.begin(), rows.end());
    }
    const so::RegionIndex oracle = so::RegionIndex::FromEntries(oracle_rows);
    CHECK(live_entries == test::Rows(oracle));
  }

  // Crash-recover the whole racy run from disk: same merged bytes.
  {
    WalOptions options;
    options.dir = dir;
    auto recovery = ReplayWal(options);
    CHECK_OK(recovery);
    if (recovery.ok()) {
      std::shared_ptr<const storage::ShardedStore> base;
      if (recovery->base_path.empty()) {
        base = MakeBase();
      } else {
        auto snapshot = storage::Snapshot::Open(recovery->base_path);
        CHECK_OK(snapshot);
        if (!snapshot.ok()) return;
        base = (*snapshot)->shared_store();
      }
      storage::MutableStore restored(base);
      CHECK_OK(restored.Restore(*recovery));
      CHECK(MergedEntries(restored) == live_entries);
    }
  }
  RemoveDirRecursive(dir);
  for (int g = 1; g <= generations.load(); ++g) {
    std::remove(TempSnap("race_gen" + std::to_string(g)).c_str());
  }
}

int main() {
  RUN_TEST(TestRecordCodec);
  RUN_TEST(TestReplayMissingAndEmptyDir);
  RUN_TEST(TestCrashKillMatrix);
  RUN_TEST(TestTornTailFuzz);
  RUN_TEST(TestFsyncFailureLatchesReadOnly);
  RUN_TEST(TestShortWriteTornTailRecovers);
  RUN_TEST(TestReplayCompactReplayWithRetirement);
  RUN_TEST(TestWriterRacesAutoCompactorWithWal);
  TEST_MAIN();
}
