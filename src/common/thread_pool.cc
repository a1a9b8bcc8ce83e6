#include "common/thread_pool.h"

#include <atomic>
#include <exception>

namespace standoff {

namespace {

// Set while a thread is executing a ParallelFor body (on the calling
// thread for the whole call, on a worker for the span of its chunk
// task); the nesting guard reads it.
thread_local bool t_in_parallel_for = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Workers only exit once the queue is empty, so nothing is dropped.
}

size_t ThreadPool::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::Submit(std::function<void()> fn) {
  if (workers_.empty()) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(fn));
  }
  wake_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, and everything ran
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

namespace {

/// State one ParallelFor call shares between the calling thread and its
/// pool tasks. Lives on the caller's stack; the caller does not return
/// before every task has signalled completion.
struct ParallelForState {
  std::atomic<size_t> next;
  size_t end = 0;
  const std::function<Status(size_t)>* fn = nullptr;
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t pending = 0;   // outstanding pool tasks, guarded by mu
  Status error;         // first failure, guarded by mu

  void Fail(Status status) {
    std::lock_guard<std::mutex> lock(mu);
    if (error.ok()) error = std::move(status);
    failed.store(true, std::memory_order_release);
  }

  /// Claims indices off the shared cursor until exhaustion or failure.
  void Drain() {
    while (!failed.load(std::memory_order_acquire)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        Status status = (*fn)(i);
        if (!status.ok()) {
          Fail(std::move(status));
          return;
        }
      } catch (const std::exception& e) {
        Fail(Status::Internal(std::string("ParallelFor body threw: ") +
                              e.what()));
        return;
      } catch (...) {
        Fail(Status::Internal("ParallelFor body threw a non-exception"));
        return;
      }
    }
  }
};

}  // namespace

Status ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                   const std::function<Status(size_t)>& fn) {
  if (begin >= end) return Status::OK();
  if (t_in_parallel_for) {
    return Status::FailedPrecondition(
        "nested ParallelFor: already inside a parallel region on this "
        "thread");
  }
  t_in_parallel_for = true;
  struct Reset {
    ~Reset() { t_in_parallel_for = false; }
  } reset;

  const size_t n = end - begin;
  const size_t workers = pool ? pool->num_workers() : 0;
  ParallelForState state;
  state.next.store(begin, std::memory_order_relaxed);
  state.end = end;
  state.fn = &fn;

  const size_t helpers = workers == 0 || n < 2 ? 0 : std::min(workers, n - 1);
  state.pending = helpers;
  for (size_t t = 0; t < helpers; ++t) {
    pool->Submit([&state] {
      t_in_parallel_for = true;
      state.Drain();
      t_in_parallel_for = false;
      std::lock_guard<std::mutex> lock(state.mu);
      if (--state.pending == 0) state.done_cv.notify_all();
    });
  }
  state.Drain();
  {
    std::unique_lock<std::mutex> lock(state.mu);
    state.done_cv.wait(lock, [&state] { return state.pending == 0; });
    return state.error;
  }
}

}  // namespace standoff
