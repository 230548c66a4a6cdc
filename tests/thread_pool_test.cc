#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lite {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, OrderedReductionIsDeterministicAcrossThreadCounts) {
  // The reduction contract: slot i holds map(i), so any downstream fold in
  // index order is independent of thread count and scheduling. Jitter the
  // per-item runtime to shuffle completion order.
  auto mapper = [](size_t i) {
    if (i % 7 == 0) std::this_thread::yield();
    return std::sin(static_cast<double>(i)) * static_cast<double>(i % 13);
  };
  std::vector<double> reference(512);
  for (size_t i = 0; i < reference.size(); ++i) reference[i] = mapper(i);

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 3; ++round) {
      std::vector<double> got =
          pool.ParallelMap<double>(reference.size(), mapper);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], reference[i])
            << "threads=" << threads << " slot " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ExceptionFromWorkerTaskPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](size_t i) {
                         if (i == 37) throw std::runtime_error("task 37");
                       }),
      std::runtime_error);
  // The pool survives a failed loop and keeps executing new work.
  std::atomic<int> done{0};
  pool.ParallelFor(10, [&](size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPoolTest, SubmitFutureRethrowsTaskException) {
  ThreadPool pool(2);
  std::future<void> ok = pool.Submit([] {});
  std::future<void> bad =
      pool.Submit([] { throw std::invalid_argument("boom"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::invalid_argument);
}

TEST(ThreadPoolTest, EmptySubmissionReturnsImmediately) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
  std::vector<int> empty = pool.ParallelMap<int>(0, [](size_t) { return 1; });
  EXPECT_TRUE(empty.empty());
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Every worker blocks inside an outer iteration that itself fans out —
  // nested calls must run inline instead of waiting on the busy queue.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(50, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 50);
}

TEST(ThreadPoolTest, ManyConcurrentLoopsFromSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::vector<std::future<void>> futs;
  for (int t = 0; t < 6; ++t) {
    futs.push_back(pool.Submit([&] {
      pool.ParallelFor(100, [&](size_t) { total.fetch_add(1); });
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(total.load(), 600);
}

// Blocks until every worker of `pool` is parked, so the next submission
// sees a settled idle stack.
void WaitAllIdle(const ThreadPool& pool) {
  while (pool.idle_workers() != pool.size()) std::this_thread::yield();
}

TEST(ThreadPoolTest, SequentialSubmitsRunOnOneWorker) {
  // LIFO wake-up: the worker that just finished is on top of the idle
  // stack, so strictly one-at-a-time submissions never rotate through the
  // other workers.
  ThreadPool pool(4);
  WaitAllIdle(pool);
  std::thread::id first;
  for (int i = 0; i < 50; ++i) {
    std::thread::id ran_on;
    pool.Submit([&] { ran_on = std::this_thread::get_id(); }).get();
    if (i == 0) first = ran_on;
    EXPECT_EQ(ran_on, first) << "submission " << i;
    WaitAllIdle(pool);
  }
}

TEST(ThreadPoolTest, ShutdownWithIdleWorkersJoins) {
  for (size_t threads : {1u, 2u, 4u}) {
    auto pool = std::make_unique<ThreadPool>(threads);
    WaitAllIdle(*pool);
    EXPECT_EQ(pool->idle_workers(), threads);
    pool.reset();  // must wake and join every parked worker.
  }
  // Shutdown right after a burst: queued work still runs to completion.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) pool.Submit([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, NoLostWakeUpWhenEveryWorkerIsBusy) {
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> started{0};
  auto blocker = [&] {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  std::future<void> a = pool.Submit(blocker);
  std::future<void> b = pool.Submit(blocker);
  while (started.load() < 2) std::this_thread::yield();
  EXPECT_EQ(pool.idle_workers(), 0u);
  // Queued while nobody is parked: a finishing worker must pick these up.
  std::atomic<int> late{0};
  std::vector<std::future<void>> queued;
  for (int i = 0; i < 8; ++i) {
    queued.push_back(pool.Submit([&] { late.fetch_add(1); }));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  a.get();
  b.get();
  for (auto& f : queued) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  }
  EXPECT_EQ(late.load(), 8);
}

TEST(ThreadPoolTest, WithThreadsReusesOnePoolPerSize) {
  ThreadPool& two = ThreadPool::WithThreads(2);
  EXPECT_EQ(two.size(), 2u);
  EXPECT_EQ(&ThreadPool::WithThreads(2), &two);
  EXPECT_NE(&ThreadPool::WithThreads(3), &two);
  EXPECT_EQ(&ThreadPool::WithThreads(0), &ThreadPool::Shared());
}

TEST(ThreadPoolTest, SharedPoolIsUsableAndSized) {
  ThreadPool& pool = ThreadPool::Shared();
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> n{0};
  pool.ParallelFor(64, [&](size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 64);
}

}  // namespace
}  // namespace lite
