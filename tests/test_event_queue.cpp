// Event queue: ordering, FIFO ties, cancellation semantics, slot reuse
// and memory bounded by the pending set.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <vector>

#include "sim/event_queue.hpp"

namespace hs = hpcs::sim;

TEST(EventQueue, TimeOrdering) {
  hs::EventQueue q;
  std::vector<int> fired;
  q.push(3.0, [&] { fired.push_back(3); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(2.0, [&] { fired.push_back(2); });
  hs::SimTime t;
  while (!q.empty()) q.pop(t)();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtEqualTimes) {
  hs::EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i)
    q.push(1.0, [&fired, i] { fired.push_back(i); });
  hs::SimTime t;
  while (!q.empty()) q.pop(t)();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PopReportsTime) {
  hs::EventQueue q;
  q.push(2.5, [] {});
  hs::SimTime t = 0;
  q.pop(t);
  EXPECT_DOUBLE_EQ(t, 2.5);
}

TEST(EventQueue, NextTime) {
  hs::EventQueue q;
  q.push(5.0, [] {});
  q.push(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, CancelPreventsExecution) {
  hs::EventQueue q;
  bool fired = false;
  const auto id = q.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  hs::EventQueue q;
  const auto id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopFails) {
  hs::EventQueue q;
  const auto id = q.push(1.0, [] {});
  hs::SimTime t;
  q.pop(t);
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  hs::EventQueue q;
  EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueue, CancelMiddleKeepsOrder) {
  hs::EventQueue q;
  std::vector<int> fired;
  q.push(1.0, [&] { fired.push_back(1); });
  const auto id = q.push(2.0, [&] { fired.push_back(2); });
  q.push(3.0, [&] { fired.push_back(3); });
  q.cancel(id);
  EXPECT_EQ(q.pending(), 2u);
  hs::SimTime t;
  while (!q.empty()) q.pop(t)();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, EmptyThrowsOnAccess) {
  hs::EventQueue q;
  hs::SimTime t;
  EXPECT_THROW(q.pop(t), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, StaleIdNeverCancelsTheSlotsNextOccupant) {
  hs::EventQueue q;
  hs::SimTime t;
  const auto fired_id = q.push(1.0, [] {});
  q.pop(t);
  const auto cancelled_id = q.push(2.0, [] {});
  ASSERT_TRUE(q.cancel(cancelled_id));
  // Both slots are free again; the next pushes reuse them.
  bool a = false, b = false;
  q.push(3.0, [&] { a = true; });
  q.push(4.0, [&] { b = true; });
  EXPECT_FALSE(q.cancel(fired_id));
  EXPECT_FALSE(q.cancel(cancelled_id));
  EXPECT_EQ(q.pending(), 2u);
  while (!q.empty()) q.pop(t)();
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
}

TEST(EventQueue, HeavyCancellationKeepsTimeThenPushOrder) {
  hs::EventQueue q;
  std::vector<hs::EventId> ids;
  std::vector<int> fired;
  for (int i = 0; i < 3000; ++i)
    ids.push_back(q.push(static_cast<double>(i % 7),
                         [&fired, i] { fired.push_back(i); }));
  std::vector<int> expected;
  for (int i = 0; i < 3000; ++i) {
    if (i % 3 == 0) {
      expected.push_back(i);
    } else {
      EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](int x, int y) { return x % 7 < y % 7; });
  EXPECT_EQ(q.pending(), expected.size());
  hs::SimTime t;
  while (!q.empty()) q.pop(t)();
  EXPECT_EQ(fired, expected);
}

// Host memory must follow the pending set, not the number of events ever
// pushed or cancelled: a long run with a bounded frontier stays flat.
TEST(EventQueue, MemoryFollowsPendingEventsNotTotalEvents) {
  const auto peak_kb = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;  // kilobytes on Linux
  };
  const long before = peak_kb();
  hs::EventQueue q;
  constexpr int kPending = 1000;
  constexpr long kEvents = 4'000'000;
  for (int i = 0; i < kPending; ++i) q.push(static_cast<double>(i), [] {});
  hs::SimTime t = 0.0;
  for (long n = kPending; n < kEvents; ++n) {
    q.pop(t);
    q.push(t + kPending, [] {});
    // A far-future event cancelled long before it is due, like a walltime
    // limit the job beat, must not stay behind either.
    q.cancel(q.push(t + 1e9, [] {}));
  }
  while (!q.empty()) q.pop(t);
  EXPECT_LT(peak_kb() - before, 32L * 1024)
      << "peak RSS grew with the total event count";
}
