#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <utility>
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

// -- randomized reference check ----------------------------------------------
// The engine's queue against a std::set of (t, seq) keys under a random mix
// of every queue operation. Sizes grow to a per-seed cap and shrink back to
// empty, so each seed crosses the 4-ary heap's level edges (1, 5, 21, 85,
// 341 entries) in both directions; the largest cap holds over 3 k pending.

namespace {

class QueueModel {
 public:
  QueueModel(std::uint64_t seed, std::size_t cap) : rng_(seed), cap_(cap) {}

  /// Runs two grow-to-cap / shrink-to-empty cycles; returns the first
  /// disagreement with the reference, or "" if there was none.
  std::string run() {
    for (int cycle = 0; cycle < 2 && error_.empty(); ++cycle) {
      while (error_.empty() && ref_.size() < cap_) op(/*grow=*/true);
      while (error_.empty() && !ref_.empty()) op(/*grow=*/false);
    }
    if (error_.empty()) audit();
    return error_;
  }

  std::size_t peak() const { return peak_; }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (t ns, seq)
  struct Event {
    Key key;
    EventId id;
    bool delivery;
  };

  void fail(const std::string& what) {
    if (error_.empty())
      error_ = what + " (op " + std::to_string(ops_) + ", " +
               std::to_string(ref_.size()) + " pending)";
  }

  /// A random pending event's key, or end() if none is pending.
  std::set<Key>::const_iterator random_pending() {
    if (ref_.empty()) return ref_.end();
    const std::int64_t lo = ref_.begin()->first;
    const std::int64_t hi = ref_.rbegin()->first;
    auto it = ref_.lower_bound(Key{rng_.uniform_int(lo, hi), 0});
    return it == ref_.end() ? std::prev(it) : it;
  }

  Time pick_time() {
    // Ties are heavy: 40 % of events reuse a pending event's exact
    // nanosecond and 20 % land within 3 ns of now, so seq alone orders
    // them. The rest spread over a span that grows with the cap, so the
    // grow phase can outrun the clock.
    const double r = rng_.next_double();
    if (r < 0.4 && !ref_.empty()) return Time::from_ns(random_pending()->first);
    const std::int64_t span =
        r < 0.6 ? 3 : static_cast<std::int64_t>(cap_) * 200;
    return e_.now() + Duration::ns(rng_.uniform_int(0, span));
  }

  void schedule(bool delivery) {
    const Time t = pick_time();
    const std::uint64_t seq = events_.size();
    auto fn = [this, seq] { fired(seq); };
    const EventId id =
        delivery ? e_.schedule_delivery(t, fn) : e_.schedule_at(t, fn);
    events_.push_back(Event{Key{t.count(), seq}, id, delivery});
    ref_.insert(events_.back().key);
    peak_ = std::max(peak_, ref_.size());
  }

  /// Cancels a random event: half the time one near a random pending key
  /// (so usually live), otherwise any event ever scheduled (usually fired
  /// or already cancelled), now and then an invalid id.
  void cancel_one() {
    if (events_.empty() || rng_.bernoulli(0.02)) {
      e_.cancel(EventId{});
      return;
    }
    std::uint64_t seq = 0;
    if (!ref_.empty() && rng_.bernoulli(0.5)) {
      seq = random_pending()->second;
    } else {
      seq = static_cast<std::uint64_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(events_.size()) - 1));
    }
    const Event& ev = events_[seq];
    const bool live = ref_.count(ev.key) != 0;
    if (e_.pending(ev.id) != live) fail("pending() disagrees before cancel");
    e_.cancel(ev.id);
    ref_.erase(ev.key);
    if (e_.pending(ev.id)) fail("event still pending after cancel");
  }

  void fired(std::uint64_t seq) {
    const Key key = events_[seq].key;
    if (ref_.empty() || *ref_.begin() != key)
      fail("fired seq " + std::to_string(seq) + " out of (t, seq) order");
    if (e_.now().count() != key.first) fail("now() is not the fired event's t");
    ref_.erase(key);
    // Handlers cancel (any event, this one included) and schedule too.
    if (rng_.bernoulli(0.2)) cancel_one();
    if (rng_.bernoulli(0.2)) schedule(rng_.bernoulli(0.3));
  }

  /// Everything the reference can answer, checked against the engine.
  void audit() {
    const Time head =
        ref_.empty() ? Time::max() : Time::from_ns(ref_.begin()->first);
    if (e_.next_event_time() != head) fail("next_event_time disagrees");
    if (e_.events_pending() != ref_.size() ||
        e_.queue_footprint() != ref_.size())
      fail("pending count or footprint disagrees");
    Time earliest = Time::max();
    for (const Key& k : ref_)
      if (events_[k.second].delivery)
        earliest = std::min(earliest, Time::from_ns(k.first));
    const Time limit =
        rng_.bernoulli(0.5)
            ? Time::max()
            : e_.now() + Duration::ns(rng_.uniform_int(0, 5'000));
    if (e_.next_delivery_time(limit) != std::min(earliest, limit))
      fail("next_delivery_time disagrees with brute force");
    e_.check_consistent();
  }

  void op(bool grow) {
    ++ops_;
    const double r = rng_.next_double();
    // Growing: mostly schedules. Shrinking: mostly fires and cancels.
    const double sched = grow ? 0.62 : 0.18;
    const double deliv = sched + 0.08;
    const double cancel = deliv + (grow ? 0.1 : 0.22);
    const double step = cancel + (grow ? 0.1 : 0.3);
    const double until = step + (grow ? 0.05 : 0.11);
    if (r < sched) {
      schedule(false);
    } else if (r < deliv) {
      schedule(true);
    } else if (r < cancel) {
      cancel_one();
    } else if (r < step) {
      const bool any = !ref_.empty();
      if (e_.step() != any) fail("step() disagrees with emptiness");
    } else if (r < until) {
      const Time deadline = e_.now() + Duration::ns(rng_.uniform_int(0, 300));
      e_.run_until(deadline);
      if (e_.now() != deadline) fail("run_until left now() off the deadline");
      if (!ref_.empty() && ref_.begin()->first <= deadline.count())
        fail("run_until left an event due by its deadline");
    } else {
      const Time end = e_.now() + Duration::ns(rng_.uniform_int(0, 300));
      e_.run_before(end);
      if (e_.now() != end) fail("run_before left now() off its end");
      if (!ref_.empty() && ref_.begin()->first < end.count())
        fail("run_before left an event due before its end");
    }
    if (ops_ % 7 == 0) audit();
  }

  Engine e_;
  Rng rng_;
  std::size_t cap_;
  std::set<Key> ref_;
  std::vector<Event> events_;  // indexed by seq
  std::size_t peak_ = 0;
  std::uint64_t ops_ = 0;
  std::string error_;
};

}  // namespace

TEST(Engine, MatchesAReferenceQueueUnderRandomOps) {
  // Many seeds at small caps, where the level edges sit; two at 3.2 k,
  // whose audits dominate the run time.
  const std::size_t caps[] = {3, 8, 30, 120, 500};
  std::size_t peak = 0;
  for (std::uint64_t seed = 1; seed <= 42; ++seed) {
    const std::size_t cap = seed > 40 ? 3200 : caps[seed % std::size(caps)];
    QueueModel m(seed, cap);
    EXPECT_EQ(m.run(), "") << "seed " << seed << ", cap " << cap;
    peak = std::max(peak, m.peak());
  }
  EXPECT_GE(peak, 3000U);
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
