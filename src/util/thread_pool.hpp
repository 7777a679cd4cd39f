// Fixed-size worker pool with a bounded task queue.
//
// Built for the campaign executor: thousands of independent injected runs
// are fanned out across workers while the submitting thread blocks when the
// queue is full (bounded memory, natural backpressure). The first exception
// thrown by a task is captured and rethrown from wait(), so campaign-level
// errors (e.g. a SetupError from a broken app) surface on the submitting
// thread. A campaign runs on a pool at every job count, one worker included.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fsim::util {

class ThreadPool {
 public:
  /// Spawn `workers` threads (at least 1). `queue_capacity` bounds the
  /// number of queued-but-unstarted tasks; 0 picks 4x the worker count.
  explicit ThreadPool(std::size_t workers, std::size_t queue_capacity = 0);

  /// Joins after finishing every task already submitted.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; blocks while the queue is at capacity. Tasks submitted
  /// after an earlier task threw still run — exceptions are reported by
  /// wait(), not by cancelling outstanding work.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished, then rethrow the first
  /// task exception (if any) and clear it. The pool stays usable afterwards.
  void wait();

  std::size_t workers() const noexcept { return threads_.size(); }

  /// Index of the calling worker thread in [0, workers()), or -1 when
  /// called from a thread that does not belong to a pool. Lets tasks keep
  /// per-worker accumulators without any locking.
  static int current_worker() noexcept;

  /// A sensible default worker count for CPU-bound fan-out.
  static std::size_t default_workers() noexcept {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc ? hc : 4;
  }

 private:
  void worker_loop(std::size_t index);

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::size_t capacity_;
  std::size_t active_ = 0;   // tasks currently executing
  bool stopping_ = false;    // destructor has begun
  std::exception_ptr first_error_;
  mutable std::mutex mu_;
  std::condition_variable task_ready_;   // signals workers
  std::condition_variable space_ready_;  // signals blocked submitters
  std::condition_variable idle_;         // signals wait()
};

}  // namespace fsim::util
