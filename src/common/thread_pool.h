// A small FIFO thread pool plus the ParallelFor helper that parallel
// ingest, snapshot saves and compaction merges are built on.
//
// The pool is one task queue under one mutex: Submit appends, an idle
// worker takes the oldest task. Its work is a few coarse tasks — the
// ParallelFor helpers and auto-compaction — so there is nothing for
// per-worker queues or stealing to balance. ParallelFor partitions an
// index range dynamically (one shared cursor, so uneven per-index cost
// balances automatically), runs chunks on the pool AND the calling
// thread, and folds per-index Status results — including thrown
// exceptions — into one Status.
//
// Determinism contract: the pool never reorders or drops work. Every
// task submitted before the destructor runs is executed to completion
// before the destructor returns, and ParallelFor returns only after
// every index in [begin, end) has been visited (or abandoned after the
// first error).
#ifndef STANDOFF_COMMON_THREAD_POOL_H_
#define STANDOFF_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace standoff {

class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads. Zero workers is a valid pool:
  /// Submit then executes on the submitting thread.
  explicit ThreadPool(size_t num_workers);

  /// Drains every queued task, then joins all workers. Deterministic:
  /// no submitted task is dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Enqueues `fn` for execution on the next idle worker, in
  /// submission order. With zero workers, runs inline.
  void Submit(std::function<void()> fn);

  static size_t HardwareThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by mu_
  bool stopping_ = false;                    // guarded by mu_
};

/// Invokes `fn(i)` once for every i in [begin, end), distributing
/// indices across `pool` and the calling thread. Blocks until all
/// indices ran (or were abandoned after the first failure) and returns
/// the first non-OK Status; exceptions thrown by `fn` become
/// kInternal. `pool == nullptr` (or an empty pool) runs everything
/// inline on the calling thread.
///
/// Calls may not nest: invoking ParallelFor from inside a running
/// ParallelFor body returns kFailedPrecondition without executing
/// anything.
Status ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                   const std::function<Status(size_t)>& fn);

}  // namespace standoff

#endif  // STANDOFF_COMMON_THREAD_POOL_H_
