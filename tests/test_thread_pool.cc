// ThreadPool / ParallelFor contract tests: coverage of the empty and
// degenerate ranges, exact-once index visitation, nested-call
// rejection, Status and exception propagation, and deterministic
// shutdown (no submitted task is ever dropped).
#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"
#include "tests/harness.h"

using namespace standoff;

static void TestEmptyRange() {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  CHECK_OK(ParallelFor(&pool, 5, 5, [&](size_t) {
    ++calls;
    return Status::OK();
  }));
  CHECK_OK(ParallelFor(&pool, 7, 3, [&](size_t) {
    ++calls;
    return Status::OK();
  }));
  CHECK_EQ(calls.load(), 0);
}

static void TestSingleItem() {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  size_t seen = 0;
  CHECK_OK(ParallelFor(&pool, 41, 42, [&](size_t i) {
    ++calls;
    seen = i;
    return Status::OK();
  }));
  CHECK_EQ(calls.load(), 1);
  CHECK_EQ(seen, static_cast<size_t>(41));
}

static void TestEveryIndexExactlyOnce() {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  CHECK_OK(ParallelFor(&pool, 0, kN, [&](size_t i) {
    counts[i].fetch_add(1);
    return Status::OK();
  }));
  for (size_t i = 0; i < kN; ++i) CHECK_EQ(counts[i].load(), 1);
}

static void TestNullPoolRunsInline() {
  std::atomic<int> calls{0};
  CHECK_OK(ParallelFor(nullptr, 0, 100, [&](size_t) {
    ++calls;
    return Status::OK();
  }));
  CHECK_EQ(calls.load(), 100);
}

static void TestNestedRejection() {
  ThreadPool pool(2);
  Status inner_status = Status::OK();
  CHECK_OK(ParallelFor(&pool, 0, 1, [&](size_t) {
    inner_status =
        ParallelFor(&pool, 0, 4, [](size_t) { return Status::OK(); });
    return Status::OK();
  }));
  CHECK(!inner_status.ok());
  CHECK_EQ(static_cast<int>(inner_status.code()),
           static_cast<int>(StatusCode::kFailedPrecondition));

  // A failed nested call must not poison subsequent top-level calls.
  std::atomic<int> calls{0};
  CHECK_OK(ParallelFor(&pool, 0, 8, [&](size_t) {
    ++calls;
    return Status::OK();
  }));
  CHECK_EQ(calls.load(), 8);
}

static void TestStatusPropagation() {
  ThreadPool pool(3);
  Status status = ParallelFor(&pool, 0, 1000, [&](size_t i) {
    if (i == 137) return Status::Invalid("index 137 is cursed");
    return Status::OK();
  });
  CHECK(!status.ok());
  CHECK_EQ(static_cast<int>(status.code()),
           static_cast<int>(StatusCode::kInvalidArgument));
  CHECK_EQ(status.message(), std::string("index 137 is cursed"));
}

static void TestExceptionPropagation() {
  ThreadPool pool(3);
  Status status = ParallelFor(&pool, 0, 64, [&](size_t i) -> Status {
    if (i == 7) throw std::runtime_error("boom at 7");
    return Status::OK();
  });
  CHECK(!status.ok());
  CHECK_EQ(static_cast<int>(status.code()),
           static_cast<int>(StatusCode::kInternal));
  CHECK(status.message().find("boom at 7") != std::string::npos);

  // The pool survives a throwing body.
  std::atomic<int> calls{0};
  CHECK_OK(ParallelFor(&pool, 0, 16, [&](size_t) {
    ++calls;
    return Status::OK();
  }));
  CHECK_EQ(calls.load(), 16);
}

static void TestDeterministicShutdown() {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    // Destructor must drain all 500 before joining.
  }
  CHECK_EQ(ran.load(), 500);
}

static void TestZeroWorkerPoolRunsInline() {
  ThreadPool pool(0);
  CHECK_EQ(pool.num_workers(), static_cast<size_t>(0));
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  CHECK_EQ(ran.load(), 1);
  CHECK_OK(ParallelFor(&pool, 0, 10, [&](size_t) {
    ran.fetch_add(1);
    return Status::OK();
  }));
  CHECK_EQ(ran.load(), 11);
}

static void TestUnbalancedWorkCompletes() {
  // Uneven per-index cost: a few heavy indices next to many light ones
  // must still visit everything exactly once.
  ThreadPool pool(4);
  constexpr size_t kN = 256;
  std::vector<std::atomic<int>> counts(kN);
  CHECK_OK(ParallelFor(&pool, 0, kN, [&](size_t i) {
    volatile uint64_t sink = 0;
    const uint64_t spin = i % 64 == 0 ? 200000 : 100;
    for (uint64_t k = 0; k < spin; ++k) sink += k;
    counts[i].fetch_add(1);
    return Status::OK();
  }));
  for (size_t i = 0; i < kN; ++i) CHECK_EQ(counts[i].load(), 1);
}

int main() {
  RUN_TEST(TestEmptyRange);
  RUN_TEST(TestSingleItem);
  RUN_TEST(TestEveryIndexExactlyOnce);
  RUN_TEST(TestNullPoolRunsInline);
  RUN_TEST(TestNestedRejection);
  RUN_TEST(TestStatusPropagation);
  RUN_TEST(TestExceptionPropagation);
  RUN_TEST(TestDeterministicShutdown);
  RUN_TEST(TestZeroWorkerPoolRunsInline);
  RUN_TEST(TestUnbalancedWorkCompletes);
  TEST_MAIN();
}
