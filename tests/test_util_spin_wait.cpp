// Tests for the partitioned core's wait primitive: util::SpinWait (yield,
// abort, deadline) and the util::SpinBarrier rendezvous built on it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/spin_wait.hpp"

namespace {

using pasched::util::SpinBarrier;
using pasched::util::SpinWait;
using pasched::util::WaitResult;
using Clock = std::chrono::steady_clock;

TEST(SpinWait, ReturnsReadyAbortedOrTimedOut) {
  std::atomic<bool> abort{false};
  const SpinWait patient(std::chrono::seconds(60), &abort);
  EXPECT_EQ(patient.wait([] { return true; }), WaitResult::Ready);
  int polls = 0;
  EXPECT_EQ(patient.wait([&polls] { return ++polls > 3000; }),
            WaitResult::Ready);
  const SpinWait how(std::chrono::milliseconds(20), &abort);
  EXPECT_EQ(how.wait([] { return false; }), WaitResult::TimedOut);
  abort.store(true);
  EXPECT_EQ(how.wait([] { return false; }), WaitResult::Aborted);
}

TEST(SpinWait, TimeTheWaiterWasNotRunningDoesNotCount) {
  // One poll takes longer than the whole deadline, as when the process is
  // stopped mid-wait: that gap moves the deadline back, so the condition
  // that holds a few polls later still counts as Ready.
  static_assert(SpinWait::kPauseGap < std::chrono::seconds(2));
  const SpinWait how(std::chrono::milliseconds(50), nullptr);
  int polls = 0;
  EXPECT_EQ(how.wait([&polls] {
    if (++polls == 2) std::this_thread::sleep_for(std::chrono::seconds(2));
    return polls > 5;
  }),
            WaitResult::Ready);
  // A wait that is scheduled all along still times out at its deadline.
  const Clock::time_point t0 = Clock::now();
  EXPECT_EQ(how.wait([] { return false; }), WaitResult::TimedOut);
  EXPECT_LT(Clock::now() - t0, SpinWait::kPauseGap);
}

TEST(SpinBarrier, PeerThatNeverArrivesTimesOut) {
  // Two parties, one arrival: past the deadline the waiter gives up instead
  // of hanging.
  SpinBarrier bar(2);
  const SpinWait how(std::chrono::milliseconds(50), nullptr);
  bool completed = false;
  const Clock::time_point t0 = Clock::now();
  EXPECT_EQ(bar.arrive_and_wait(how, [&completed] { completed = true; }),
            WaitResult::TimedOut);
  const Clock::duration waited = Clock::now() - t0;
  EXPECT_FALSE(completed);
  EXPECT_GE(waited, std::chrono::milliseconds(50));
  EXPECT_LT(waited, std::chrono::seconds(10));
}

TEST(SpinBarrier, LastArriverCompletesEachGenerationOnce) {
  // Each party adds its slot before arriving; the completion step, run once
  // per crossing, must see every addition of that crossing and nothing of
  // the next.
  constexpr int kParties = 3;
  constexpr int kCrossings = 2000;
  SpinBarrier bar(kParties);
  const SpinWait how(std::chrono::seconds(60), nullptr);
  std::vector<std::int64_t> slots(kParties, 0);
  std::vector<std::int64_t> seen;
  seen.reserve(kCrossings);
  {
    std::vector<std::jthread> pool;
    for (int p = 0; p < kParties; ++p) {
      pool.emplace_back([&, p] {
        for (int c = 1; c <= kCrossings; ++c) {
          slots[static_cast<std::size_t>(p)] = c;
          const WaitResult r = bar.arrive_and_wait(how, [&] {
            std::int64_t sum = 0;
            for (const std::int64_t v : slots) sum += v;
            seen.push_back(sum);
          });
          ASSERT_EQ(r, WaitResult::Ready);
        }
      });
    }
  }
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kCrossings));
  for (int c = 1; c <= kCrossings; ++c)
    EXPECT_EQ(seen[static_cast<std::size_t>(c - 1)], kParties * c);
}

TEST(SpinBarrier, ThrowingCompletionLeavesThroughTheLastArriver) {
  // The completion step's error leaves the last arriver's arrive_and_wait;
  // the waiting party is released by the abort flag the error handler sets.
  SpinBarrier bar(2);
  std::atomic<bool> abort{false};
  const SpinWait how(std::chrono::seconds(60), &abort);
  std::atomic<int> throws{0};
  std::atomic<int> aborted{0};
  {
    std::vector<std::jthread> pool;
    for (int p = 0; p < 2; ++p) {
      pool.emplace_back([&] {
        try {
          if (bar.arrive_and_wait(
                  how, [] { throw std::runtime_error("plan failed"); }) ==
              WaitResult::Aborted)
            aborted.fetch_add(1);
        } catch (const std::runtime_error&) {
          throws.fetch_add(1);
          abort.store(true);
        }
      });
    }
  }
  EXPECT_EQ(throws.load(), 1);
  EXPECT_EQ(aborted.load(), 1);
}

}  // namespace
