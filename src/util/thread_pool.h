// A small fixed-size worker pool with deterministic parallel-for /
// parallel-map helpers, used to shard candidate scoring across cores.
//
// Determinism contract: ParallelMap writes result i into slot i and the
// caller reduces in index order, so the outcome is independent of thread
// count and scheduling. Exceptions thrown by tasks are captured and the
// first one is rethrown on the calling thread. Calling ParallelFor from
// inside a worker task runs the loop inline (no deadlock on nested
// submission); empty submissions return immediately.
//
// Wake-up order: every worker waits on its own wake slot, and idle workers
// form a stack. A submission wakes the most recently idled worker (LIFO),
// so a trickle of one-at-a-time tasks keeps landing on the same warm
// worker instead of rotating through every thread and preempting whatever
// the other threads run.
//
// Observability: pools export threadpool_tasks_{submitted,executed}_total,
// threadpool_parallel_{for,for_inline,iterations}_total and the
// threadpool_queue_depth gauge through obs::MetricsRegistry::Global()
// (see docs/OBSERVABILITY.md). Instrumentation never affects scheduling or
// results.
#ifndef LITE_UTIL_THREAD_POOL_H_
#define LITE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lite {

class ThreadPool {
 public:
  /// `num_threads` worker threads; 0 picks std::thread::hardware_concurrency
  /// (at least 1). A pool of size 1 still runs tasks on its single worker;
  /// the ParallelFor caller always participates, so even size-1 pools
  /// overlap work with the caller.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues one task; the future rethrows anything the task throws.
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(i) for every i in [0, n), sharding across the pool with the
  /// calling thread participating. Blocks until all iterations finish.
  /// The first exception thrown by any iteration is rethrown here. Safe to
  /// call with n == 0 and safe to call from inside a worker task (runs
  /// inline in that case).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Ordered reduction: returns {map(0), map(1), ..., map(n-1)} — slot i
  /// always holds map(i), so downstream reductions are deterministic
  /// regardless of thread count or scheduling.
  template <typename T>
  std::vector<T> ParallelMap(size_t n, const std::function<T(size_t)>& map) {
    std::vector<T> out(n);
    ParallelFor(n, [&](size_t i) { out[i] = map(i); });
    return out;
  }

  /// Workers currently parked with nothing to run.
  size_t idle_workers() const;

  /// Process-wide pool sized to the hardware; lives for the process.
  static ThreadPool& Shared();

  /// Process-wide pool with `num_threads` workers, built on first use and
  /// kept for the process (0 = Shared()). Callers that take a thread count
  /// per call use this instead of spawning a pool per call. Every distinct
  /// count keeps its own parked workers until exit, and concurrent callers
  /// asking for the same count share that one set of workers.
  static ThreadPool& WithThreads(size_t num_threads);

 private:
  struct WakeSlot {
    std::condition_variable cv;
    bool woken = false;
  };

  void WorkerLoop(size_t index);
  /// Queues `task` and wakes the most recently idled worker, if any.
  void Enqueue(std::function<void()> task);

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WakeSlot>> slots_;  ///< one per worker.
  std::vector<size_t> idle_;  ///< stack of parked workers; back = newest.
  std::deque<std::function<void()>> tasks_;
  mutable std::mutex mu_;
  bool stop_ = false;
};

}  // namespace lite

#endif  // LITE_UTIL_THREAD_POOL_H_
