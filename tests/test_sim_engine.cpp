#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

using namespace pasched::sim;
using namespace pasched::sim::literals;

TEST(Time, ArithmeticAndComparison) {
  const Time t0 = Time::zero();
  const Time t1 = t0 + 5_ms;
  EXPECT_EQ((t1 - t0).count(), 5'000'000);
  EXPECT_LT(t0, t1);
  EXPECT_EQ(Duration::us(2) * 3, 6_us);
  EXPECT_EQ(10_ms / 4_ms, 2);
  EXPECT_EQ((10_ms % 4_ms).count(), Duration::ms(2).count());
  EXPECT_NEAR(Duration::from_seconds(1.5).to_ms(), 1500.0, 1e-9);
}

TEST(Time, AlignUp) {
  const Time t = Time::from_ns(10'500'000);  // 10.5 ms
  EXPECT_EQ(t.align_up(10_ms).count(), 20'000'000);
  EXPECT_EQ(t.align_up(10_ms, 1_ms).count(), 11'000'000);
  // Already on the boundary stays put.
  EXPECT_EQ(Time::from_ns(20'000'000).align_up(10_ms).count(), 20'000'000);
  // Phase larger than period is reduced mod period.
  EXPECT_EQ(t.align_up(10_ms, 21_ms).count(), 11'000'000);
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(Time::zero() + 30_us, [&] { order.push_back(3); });
  e.schedule_at(Time::zero() + 10_us, [&] { order.push_back(1); });
  e.schedule_at(Time::zero() + 20_us, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, SameTimestampIsFifo) {
  Engine e;
  std::vector<int> order;
  const Time t = Time::zero() + 5_us;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(t, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, CancelPreventsFiring) {
  Engine e;
  int fired = 0;
  const EventId id = e.schedule_at(Time::zero() + 1_ms, [&] { ++fired; });
  EXPECT_TRUE(e.pending(id));
  e.cancel(id);
  EXPECT_FALSE(e.pending(id));
  e.cancel(id);  // double-cancel is a no-op
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, CancelFromInsideHandler) {
  Engine e;
  int fired = 0;
  EventId victim = e.schedule_at(Time::zero() + 2_ms, [&] { ++fired; });
  e.schedule_at(Time::zero() + 1_ms, [&] { e.cancel(victim); });
  e.run();
  EXPECT_EQ(fired, 0);
}

TEST(Engine, HandlerMayScheduleMore) {
  Engine e;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) e.schedule_after(1_us, [&] { chain(); });
  };
  e.schedule_after(1_us, [&] { chain(); });
  e.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(e.now().count(), 5'000);
}

TEST(Engine, RunUntilAdvancesClockToDeadline) {
  Engine e;
  int fired = 0;
  e.schedule_at(Time::zero() + 10_ms, [&] { ++fired; });
  EXPECT_TRUE(e.run_until(Time::zero() + 5_ms));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.now().count(), Duration::ms(5).count());
  EXPECT_TRUE(e.run_until(Time::zero() + 20_ms));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now().count(), Duration::ms(20).count());
}

TEST(Engine, StopInterruptsRun) {
  Engine e;
  int fired = 0;
  for (int i = 1; i <= 10; ++i)
    e.schedule_at(Time::zero() + Duration::us(i), [&] {
      if (++fired == 3) e.stop();
    });
  e.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.events_pending(), 7u);
}

TEST(Engine, SchedulingInPastThrows) {
  Engine e;
  e.schedule_at(Time::zero() + 1_ms, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(Time::zero(), [] {}), std::logic_error);
}

TEST(Engine, SlotReuseDoesNotConfuseCancellation) {
  Engine e;
  int fired_a = 0, fired_b = 0;
  const EventId a = e.schedule_at(Time::zero() + 1_us, [&] { ++fired_a; });
  e.run();
  // Slot of `a` is free now; b likely reuses it.
  const EventId b = e.schedule_at(Time::zero() + 2_us, [&] { ++fired_b; });
  e.cancel(a);  // stale id must not cancel b
  e.run();
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
  (void)b;
}

// -- indexed-heap cancellation & slab growth ----------------------------------
// cancel() is a targeted O(log n) heap removal (Slot::heap_pos backlink),
// not a tombstone: the heap never carries stale entries, so pop cost stays
// O(log live) no matter how many cancellations preceded it.

TEST(Engine, CancelRemovesItsHeapEntryImmediately) {
  Engine e;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1024; ++i)
    ids.push_back(e.schedule_at(Time::zero() + Duration::us(i + 1),
                                [&] { ++fired; }));
  // Cancel everything but one: a tombstoning engine would keep 1024 heap
  // entries for the next pop to wade through; the indexed heap keeps 1.
  for (int i = 0; i < 1023; ++i) e.cancel(ids[static_cast<size_t>(i)]);
  EXPECT_EQ(e.events_pending(), 1u);
  EXPECT_EQ(e.queue_footprint(), 1u);
  e.check_consistent();
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, FootprintEqualsPendingAfterInterleavedCancels) {
  Engine e;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i)
    ids.push_back(e.schedule_at(Time::zero() + Duration::us(i + 1),
                                [&order, i] { order.push_back(i); }));
  for (int i = 0; i < 500; i += 2) e.cancel(ids[static_cast<size_t>(i)]);
  EXPECT_EQ(e.events_pending(), 250u);
  EXPECT_EQ(e.queue_footprint(), e.events_pending());
  e.check_consistent();
  e.run();
  ASSERT_EQ(order.size(), 250u);
  for (std::size_t k = 0; k < order.size(); ++k)
    EXPECT_EQ(order[k], static_cast<int>(2 * k + 1));
}

TEST(Engine, SlabGrowthPreservesFifoAcrossChunks) {
  // 300 same-timestamp events force several slab growths (64, then
  // doubling) mid-scheduling; FIFO order must survive the chunked free
  // list exactly as it did the legacy one-slot-at-a-time growth.
  Engine e;
  std::vector<int> order;
  const Time t = Time::zero() + 5_us;
  for (int i = 0; i < 300; ++i)
    e.schedule_at(t, [&order, i] { order.push_back(i); });
  e.check_consistent();
  e.run();
  ASSERT_EQ(order.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, DrainReleasesEverySlotAndHeapEntry) {
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(e.schedule_at(Time::zero() + Duration::us(i + 1), [] {}));
  for (int i = 0; i < 100; i += 3) e.cancel(ids[static_cast<size_t>(i)]);
  e.drain();
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_EQ(e.queue_footprint(), 0u);
  e.check_consistent();
  // The slab is intact and reusable after teardown.
  int fired = 0;
  e.schedule_at(Time::zero() + 1_ms, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, StepAndNextEventTime) {
  Engine e;
  int fired = 0;
  e.schedule_at(Time::zero() + 1_us, [&] { ++fired; });
  e.schedule_at(Time::zero() + 2_us, [&] { ++fired; });
  EXPECT_EQ(e.next_event_time(), Time::zero() + 1_us);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), Time::zero() + 1_us);
  EXPECT_EQ(e.next_event_time(), Time::zero() + 2_us);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
  EXPECT_EQ(e.next_event_time(), Time::max());
}

TEST(Engine, NextEventTimeSkipsCancelled) {
  Engine e;
  const EventId a = e.schedule_at(Time::zero() + 1_us, [] {});
  e.schedule_at(Time::zero() + 5_us, [] {});
  e.cancel(a);
  EXPECT_EQ(e.next_event_time(), Time::zero() + 5_us);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  Rng a(7);
  Rng child1 = a.fork(3);
  (void)a.next_u64();
  (void)a.next_u64();
  Rng a2(7);
  Rng child2 = a2.fork(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
    const auto k = r.uniform_int(-5, 5);
    EXPECT_GE(k, -5);
    EXPECT_LE(k, 5);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(9);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.03);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  Rng r(13);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(r.lognormal_med(5.0, 0.5));
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[10000], 5.0, 0.15);
}

TEST(Rng, JitteredStaysWithinBand) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    const Duration d = r.jittered(Duration::ms(10), 0.2);
    EXPECT_GE(d.count(), 8'000'000);
    EXPECT_LE(d.count(), 12'000'000);
  }
}
