#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>

#include "obs/metrics.h"

namespace lite {

namespace {
// Set while a thread is executing pool work; nested ParallelFor calls from a
// worker run inline instead of re-entering the queue (which could deadlock
// when every worker is blocked waiting on the nested loop).
thread_local bool t_inside_pool_task = false;

// Pool-wide observability (all pools share the series; the shared pool
// dominates in practice). Queue depth is sampled under the pool mutex at
// every transition, so the gauge always holds the latest observed depth.
struct PoolMetrics {
  obs::Counter* tasks_submitted;
  obs::Counter* tasks_executed;
  obs::Counter* parallel_for_calls;
  obs::Counter* parallel_for_inline;
  obs::Counter* parallel_iterations;
  obs::Gauge* queue_depth;

  static const PoolMetrics& Get() {
    static const PoolMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new PoolMetrics{
          reg.GetCounter("threadpool_tasks_submitted_total"),
          reg.GetCounter("threadpool_tasks_executed_total"),
          reg.GetCounter("threadpool_parallel_for_total"),
          reg.GetCounter("threadpool_parallel_for_inline_total"),
          reg.GetCounter("threadpool_parallel_iterations_total"),
          reg.GetGauge("threadpool_queue_depth"),
      };
    }();
    return *m;
  }
};
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  slots_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    slots_.push_back(std::make_unique<WakeSlot>());
  }
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (size_t w : idle_) slots_[w]->woken = true;
    idle_.clear();
  }
  for (auto& slot : slots_) slot->cv.notify_one();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop(size_t index) {
  WakeSlot& slot = *slots_[index];
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Park on this worker's own slot. Whoever wakes it has already popped
      // it off the idle stack; if the task it was woken for was taken by a
      // worker that finished first, it simply parks again on top.
      while (!stop_ && tasks_.empty()) {
        slot.woken = false;
        idle_.push_back(index);
        slot.cv.wait(lock, [&slot] { return slot.woken; });
      }
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
      PoolMetrics::Get().queue_depth->Set(static_cast<double>(tasks_.size()));
    }
    PoolMetrics::Get().tasks_executed->Inc();
    t_inside_pool_task = true;
    task();  // Submit wraps tasks in packaged_task, which captures throws.
    t_inside_pool_task = false;
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  WakeSlot* wake = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    PoolMetrics::Get().queue_depth->Set(static_cast<double>(tasks_.size()));
    // No idle worker means every worker is running a task; each re-checks
    // the queue under this mutex before parking, so nothing is lost.
    if (!idle_.empty()) {
      wake = slots_[idle_.back()].get();
      idle_.pop_back();
      wake->woken = true;
    }
  }
  PoolMetrics::Get().tasks_submitted->Inc();
  if (wake != nullptr) wake->cv.notify_one();
}

size_t ThreadPool::idle_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  auto packaged = std::make_shared<std::packaged_task<void()>>(std::move(task));
  std::future<void> fut = packaged->get_future();
  Enqueue([packaged] { (*packaged)(); });
  return fut;
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const PoolMetrics& metrics = PoolMetrics::Get();
  metrics.parallel_for_calls->Inc();
  metrics.parallel_iterations->Inc(n);
  if (t_inside_pool_task || workers_.empty() || n == 1) {
    metrics.parallel_for_inline->Inc();
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  struct LoopState {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    size_t pending = 0;
    std::exception_ptr error;
  };
  auto state = std::make_shared<LoopState>();

  auto drain = [state, &fn, n] {
    for (;;) {
      size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      {
        // A failed iteration stops the loop early but never the process;
        // only the first exception is kept and rethrown on the caller.
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->error) return;
      }
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->error) state->error = std::current_exception();
        return;
      }
    }
  };

  size_t helpers = std::min(workers_.size(), n - 1);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->pending = helpers;
  }
  for (size_t h = 0; h < helpers; ++h) {
    Enqueue([state, drain] {
      drain();
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->pending == 0) state->done.notify_all();
    });
  }

  drain();  // The caller works too instead of just blocking.

  std::unique_lock<std::mutex> lock(state->mu);
  state->done.wait(lock, [&] { return state->pending == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

ThreadPool& ThreadPool::WithThreads(size_t num_threads) {
  if (num_threads == 0) return Shared();
  static std::mutex mu;
  static auto* pools = new std::map<size_t, std::unique_ptr<ThreadPool>>();
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ThreadPool>& pool = (*pools)[num_threads];
  if (!pool) pool = std::make_unique<ThreadPool>(num_threads);
  return *pool;
}

}  // namespace lite
