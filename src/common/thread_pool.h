// A small work-stealing thread pool plus the ParallelFor helper that
// parallel ingest, snapshot saves and compaction merges are built on.
//
// Each worker owns a deque: Submit round-robins new tasks across the
// deques, a worker pops from the front of its own deque, and an idle
// worker steals from the back of a victim's. ParallelFor partitions an
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

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
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

  /// Enqueues `fn` for execution on some worker (round-robin placement,
  /// work-stealing balances the rest). With zero workers, runs inline.
  void Submit(std::function<void()> fn);

  static size_t HardwareThreads();

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t self);

  /// Pops one task — own queue front first, then steals from the back
  /// of the other queues — and runs it. False when everything is empty.
  bool RunOneTask(size_t self);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<size_t> queued_{0};  // tasks pushed but not yet taken
  size_t next_queue_ = 0;  // round-robin cursor, guarded by wake_mu_
  bool stopping_ = false;  // guarded by wake_mu_
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
