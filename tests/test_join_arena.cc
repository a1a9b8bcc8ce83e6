// The allocation-free steady state: with a warm JoinArena (and a warm
// caller-side output vector), the loop-lifted merge must perform ZERO
// heap allocations per call — select and reject, galloping on and off,
// sorted-emission and radix-canonicalized workloads alike. Verified by
// counting global operator new/delete invocations around the calls.
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "standoff/merge_join.h"
#include "tests/harness.h"

namespace {

// Global allocation counter. Counting is toggled so harness printing
// does not pollute the measurement window.
bool g_counting = false;
size_t g_allocations = 0;

}  // namespace

void* operator new(size_t size) {
  if (g_counting) ++g_allocations;
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](size_t size) { return ::operator new(size); }

// The nothrow forms must be replaced alongside the throwing ones:
// std::stable_sort's temporary buffer allocates via new(nothrow), and
// a default nothrow new paired with the free()-backed delete below is
// an alloc-dealloc mismatch under AddressSanitizer.
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size);
}
void* operator new[](size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

using namespace standoff;
using so::IterMatch;
using so::IterRegion;
using so::RegionEntry;
using storage::Pre;

namespace {

struct ArenaWorkload {
  so::RegionIndex index;
  std::vector<IterRegion> context;
  uint32_t iter_count;
};

/// `shuffled_iters` produces out-of-order (iter, pre) emission so the
/// radix canonicalization path runs; in-order iteration assignment
/// yields the sorted-emission no-op path.
ArenaWorkload MakeArenaWorkload(bool shuffled_iters) {
  Rng rng(17);
  const int64_t universe = 50000;
  std::vector<RegionEntry> entries;
  for (size_t i = 0; i < 3000; ++i) {
    const int64_t start = rng.UniformRange(0, universe);
    entries.push_back(RegionEntry{start, start + rng.UniformRange(0, 40),
                                  static_cast<Pre>(i + 2)});
  }
  ArenaWorkload w;
  w.index = so::RegionIndex::FromEntries(std::move(entries));
  w.iter_count = 32;
  for (uint32_t it = 0; it < w.iter_count; ++it) {
    const uint32_t iter =
        shuffled_iters ? (it * 13) % w.iter_count : it;
    const int64_t start = (universe / w.iter_count) *
                          (shuffled_iters ? it : iter);
    w.context.push_back(IterRegion{
        iter, start, start + universe / w.iter_count + 500});
  }
  return w;
}

size_t CountAllocationsOver(int calls, const ArenaWorkload& w,
                            so::StandoffOp op, const so::JoinOptions& options,
                            std::vector<IterMatch>* out) {
  g_allocations = 0;
  g_counting = true;
  for (int i = 0; i < calls; ++i) {
    const Status st = so::LoopLiftedStandoffJoinColumns(
        op, w.context, w.index.columns(), w.index.annotated_ids(),
        w.iter_count, out, options);
    if (!st.ok()) {
      g_counting = false;
      CHECK_OK(st);
      return SIZE_MAX;
    }
  }
  g_counting = false;
  return g_allocations;
}

}  // namespace

static void TestWarmArenaAllocatesNothing() {
  for (bool shuffled : {false, true}) {
    const ArenaWorkload w = MakeArenaWorkload(shuffled);
    for (so::StandoffOp op : {so::StandoffOp::kSelectNarrow,
                              so::StandoffOp::kSelectWide,
                              so::StandoffOp::kRejectNarrow,
                              so::StandoffOp::kRejectWide}) {
      for (bool gallop : {true, false}) {
        so::JoinArena arena;
        so::JoinOptions options;
        options.gallop = gallop;
        options.arena = &arena;
        std::vector<IterMatch> out;
        // Warm-up: sizes every arena buffer and the output vector.
        CHECK_OK(so::LoopLiftedStandoffJoinColumns(
            op, w.context, w.index.columns(),
            w.index.annotated_ids(), w.iter_count, &out, options));
        CHECK(!out.empty());
        const size_t allocs = CountAllocationsOver(5, w, op, options, &out);
        if (allocs != 0) {
          std::fprintf(stderr,
                       "op=%s gallop=%d shuffled=%d: %zu allocations after "
                       "warm-up\n",
                       so::StandoffOpName(op), gallop ? 1 : 0,
                       shuffled ? 1 : 0, allocs);
        }
        CHECK_EQ(allocs, size_t{0});
      }
    }
  }
}

static void TestColdCallsDoAllocate() {
  // Sanity check on the counter itself: without an arena the kernel
  // must be seen allocating (otherwise the zero above proves nothing).
  const ArenaWorkload w = MakeArenaWorkload(false);
  so::JoinOptions options;  // no arena
  std::vector<IterMatch> out;
  const size_t allocs =
      CountAllocationsOver(1, w, so::StandoffOp::kSelectNarrow, options, &out);
  CHECK(allocs > 0);
}

static void TestResultsIdenticalWithAndWithoutArena() {
  const ArenaWorkload w = MakeArenaWorkload(true);
  for (so::StandoffOp op : {so::StandoffOp::kSelectNarrow,
                            so::StandoffOp::kRejectWide}) {
    so::JoinArena arena;
    so::JoinOptions with;
    with.arena = &arena;
    std::vector<IterMatch> out_arena, out_local;
    CHECK_OK(so::LoopLiftedStandoffJoinColumns(
        op, w.context, w.index.columns(), w.index.annotated_ids(),
        w.iter_count, &out_arena, with));
    CHECK_OK(so::LoopLiftedStandoffJoinColumns(
        op, w.context, w.index.columns(), w.index.annotated_ids(),
        w.iter_count, &out_local, {}));
    CHECK(out_arena == out_local);
    CHECK(!out_arena.empty());
  }
}

int main() {
  RUN_TEST(TestWarmArenaAllocatesNothing);
  RUN_TEST(TestColdCallsDoAllocate);
  RUN_TEST(TestResultsIdenticalWithAndWithoutArena);
  TEST_MAIN();
}
