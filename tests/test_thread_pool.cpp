#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hs = hpcs::study;

TEST(TaskPool, RunsEveryTask) {
  hs::TaskPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
}

TEST(TaskPool, SingleThreadRunsEverything) {
  hs::TaskPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
  EXPECT_EQ(pool.stats().steals, 0u);  // nobody to steal from
}

TEST(TaskPool, ZeroThreadsThrows) {
  EXPECT_THROW(hs::TaskPool(0), std::invalid_argument);
  EXPECT_THROW(hs::TaskPool(-3), std::invalid_argument);
}

TEST(TaskPool, WaitIdleOnEmptyPoolReturns) {
  hs::TaskPool pool(2);
  pool.wait_idle();  // no tasks submitted: must not hang
  SUCCEED();
}

TEST(TaskPool, ReusableAcrossWaves) {
  hs::TaskPool pool(3);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 25; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), 25 * (wave + 1));
  }
}

TEST(TaskPool, NestedSubmitRuns) {
  hs::TaskPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &count] {
      pool.submit(
          [&count] { count.fetch_add(1, std::memory_order_relaxed); });
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 16);
}

TEST(TaskPool, ExceptionPropagatesAndPoolSurvives) {
  hs::TaskPool pool(2);
  pool.submit([] { throw std::runtime_error("cell exploded"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);

  // The pool stays usable after a failed wave.
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

TEST(TaskPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    hs::TaskPool pool(2);
    for (int i = 0; i < 40; ++i)
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    // no wait_idle(): the destructor must finish the queue, not drop it
  }
  EXPECT_EQ(count.load(), 40);
}

TEST(TaskPool, IdleWorkerStealsFromLoadedQueue) {
  // Round-robin spreads 20 tasks over both workers.  Task 0 blocks worker 0
  // until the gate opens, so worker 1 can only keep busy by stealing from
  // worker 0's queue.
  hs::TaskPool pool(2);
  std::atomic<bool> gate{false};
  std::atomic<int> count{0};
  pool.submit([&gate] {
    while (!gate.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  for (int i = 0; i < 20; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  // Give worker 1 time to drain its own queue and start stealing.
  while (count.load(std::memory_order_relaxed) < 20)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  gate.store(true, std::memory_order_release);
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
  EXPECT_GT(pool.stats().steals, 0u);
}

TEST(TaskPool, ManyThreadsSeeDistinctWorkers) {
  hs::TaskPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<int> count{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      {
        const std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      }
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 4u);
}
