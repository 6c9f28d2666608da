// Tests for the partitioned simulation core: Engine's conservative-window
// primitives (run_before, drain, heap compaction after mass cancellation)
// and ShardedEngine's cross-shard posting, window planning, and teardown.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "sim/engine.hpp"
#include "sim/planner.hpp"
#include "sim/shard.hpp"

namespace {

using pasched::sim::Duration;
using pasched::sim::Engine;
using pasched::sim::EventId;
using pasched::sim::PlannerStats;
using pasched::sim::ShardedEngine;
using pasched::sim::Time;

TEST(EngineWindow, RunBeforeIsExclusiveOfTheEndpoint) {
  Engine e;
  std::vector<std::int64_t> fired;
  e.schedule_at(Time::from_ns(10), [&fired] { fired.push_back(10); });
  e.schedule_at(Time::from_ns(20), [&fired] { fired.push_back(20); });
  e.run_before(Time::from_ns(20));
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10}));
  EXPECT_EQ(e.now(), Time::from_ns(20));  // clock lands on the window edge
  e.run_before(Time::from_ns(21));
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 20}));
}

TEST(EngineWindow, RunBeforeAdvancesClockWhenQueueIsEmpty) {
  Engine e;
  e.run_before(Time::from_ns(500));
  EXPECT_EQ(e.now(), Time::from_ns(500));
  EXPECT_EQ(e.events_processed(), 0U);
}

TEST(EngineCancel, MassCancellationCompactsTheHeap) {
  // Regression: cancel() used to leave a stale heap entry per cancelled
  // event, so cancel-heavy components (kernel tick reprogramming) grew the
  // heap without bound. The footprint must stay within a small constant of
  // the live count.
  Engine e;
  std::vector<EventId> ids;
  ids.reserve(1000);
  for (int i = 0; i < 1000; ++i)
    ids.push_back(e.schedule_at(Time::from_ns(1000 + i), [] {}));
  for (const EventId id : ids) e.cancel(id);
  EXPECT_EQ(e.events_pending(), 0U);
  EXPECT_LE(e.queue_footprint(), 64U);
  e.check_consistent();
  e.run();  // nothing left to fire
  EXPECT_EQ(e.events_processed(), 0U);
}

TEST(EngineCancel, CancelRepostOfTheSameSlotAcrossWindowsStaysBounded) {
  // Watchdog pattern regression: a component arms a far-future timeout,
  // then every window cancels and re-arms it. The freed slot is recycled
  // immediately (free-list LIFO), so the same slot index is cancelled and
  // re-posted thousands of times with window boundaries (run_before +
  // next_event_time pruning) interleaved between heap compactions. The
  // footprint must stay bounded and the slot table consistent throughout.
  Engine e;
  EventId timeout;
  int fired = 0;
  for (int w = 0; w < 5000; ++w) {
    e.cancel(timeout);  // no-op on the first pass (invalid id)
    timeout = e.schedule_at(e.now() + Duration::ms(10), [] {
      FAIL() << "a cancelled+re-armed timeout must never fire mid-loop";
    });
    e.schedule_at(e.now() + Duration::ns(500),
                  [&fired] { ++fired; });  // keeps every window non-empty
    e.run_before(e.now() + Duration::us(1));  // one conservative window
    EXPECT_LE(e.queue_footprint(), e.events_pending() + 64U)
        << "stale heap entries accumulating at window " << w;
  }
  EXPECT_EQ(fired, 5000);
  EXPECT_TRUE(e.pending(timeout));  // the final re-arm is still live
  e.check_consistent();
  e.cancel(timeout);
  EXPECT_EQ(e.events_pending(), 0U);
  e.run();
  EXPECT_EQ(fired, 5000);
}

TEST(ShardedCancel, CancelRepostAcrossWindowBoundariesStaysBounded) {
  // The same watchdog pattern inside the partitioned executor: an event
  // chain on shard 0 re-posts itself exactly on the window edge (so every
  // hop lands in a fresh window) and each hop cancels + re-arms a timeout
  // on its own engine. Exercises cancel()'s compaction against the window
  // planner's next_event_time() stale-entry pruning.
  struct Watchdog {
    ShardedEngine& se;
    EventId timeout;
    int remaining;
    void tick() {
      Engine& e = se.engine_of(0);
      e.cancel(timeout);
      timeout = e.schedule_at(e.now() + Duration::ms(100), [] {
        FAIL() << "watchdog timeout must stay cancelled";
      });
      if (--remaining <= 0) return;
      Watchdog* self = this;
      e.schedule_at(e.now() + se.lookahead(), [self] { self->tick(); });
    }
  };
  ShardedEngine se(2, Duration::us(10));
  Watchdog wd{se, {}, 2000};
  Watchdog* wdp = &wd;
  se.engine_of(0).schedule_at(Time::from_ns(100), [wdp] { wdp->tick(); });
  EXPECT_TRUE(se.run_until(Time::from_ns(2000 * 10'000 + 1'000), 2));
  EXPECT_EQ(wd.remaining, 0);
  EXPECT_TRUE(se.engine_of(0).pending(wd.timeout));
  EXPECT_LE(se.engine_of(0).queue_footprint(),
            se.engine_of(0).events_pending() + 64U);
  se.engine_of(0).check_consistent();
  se.drain();  // releases the armed timeout; asserts emptiness under VALIDATE
}

TEST(EngineCancel, DrainReleasesEveryPendingEvent) {
  Engine e;
  for (int i = 0; i < 100; ++i) e.schedule_at(Time::from_ns(10 + i), [] {});
  EXPECT_EQ(e.events_pending(), 100U);
  e.drain();
  EXPECT_EQ(e.events_pending(), 0U);
  EXPECT_EQ(e.queue_footprint(), 0U);
  e.check_consistent();
}

TEST(Sharded, SingleNodeClustersUseOneShard) {
  ShardedEngine se(1, Duration::us(10));
  EXPECT_EQ(se.partitions(), 1);
  EXPECT_EQ(se.hub_shard(), 0);
}

TEST(Sharded, MultiNodeClustersGetAHubShard) {
  ShardedEngine se(4, Duration::us(10));
  EXPECT_EQ(se.partitions(), 5);
  EXPECT_EQ(se.hub_shard(), 4);
  EXPECT_EQ(se.shard_of_node(2), 2);
}

// Satellite regression: an event posted exactly at the window edge
// (t == now + lookahead) must land in the *next* window of the destination
// shard — after every event the destination fires strictly before the edge,
// and in FIFO position among events at the edge itself.
TEST(Sharded, PostAtExactWindowEdgeLandsInTheNextWindow) {
  const Duration kLookahead = Duration::us(10);
  ShardedEngine se(2, kLookahead);
  std::vector<int> order;      // single worker: no concurrent access
  std::vector<std::int64_t> cross_fired_at;
  se.engine_of(1).schedule_at(Time::from_ns(9999),
                              [&order] { order.push_back(1); });
  se.engine_of(1).schedule_at(Time::from_ns(10000),
                              [&order] { order.push_back(2); });
  ShardedEngine* router = &se;
  auto* ord = &order;
  auto* cross = &cross_fired_at;
  se.engine_of(0).schedule_at(Time::zero(), [router, ord, cross] {
    // t == src.now() + lookahead: legal (>=) but right on the edge.
    router->post(0, 1, router->engine_of(0).now() + Duration::us(10),
                 [router, ord, cross] {
                   ord->push_back(3);
                   cross->push_back(router->engine_of(1).now().count());
                 });
    ord->push_back(0);
  });
  EXPECT_TRUE(se.run_until(Time::from_ns(1'000'000), 1));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(cross_fired_at.size(), 1U);
  EXPECT_EQ(cross_fired_at[0], 10000);  // delivered at its timestamp, not late
  EXPECT_EQ(se.events_processed(), 4U);
}

#if PASCHED_VALIDATE_ENABLED
TEST(Sharded, CrossShardPostBelowLookaheadIsRejected) {
  ShardedEngine se(2, Duration::us(10));
  EXPECT_THROW(se.post(0, 1, Time::from_ns(5), [] {}),
               pasched::check::CheckError);
}
#endif

namespace {
// One token bounces between two shards; every hop is mutex-ordered through
// the destination inbox, so the shared state is race-free by construction.
struct PingPong {
  ShardedEngine& se;
  std::vector<std::int64_t> fired[2];
  int remaining;

  void fire(int shard) {
    fired[shard].push_back(se.engine_of(shard).now().count());
    if (--remaining <= 0) return;
    const int other = 1 - shard;
    PingPong* self = this;
    se.post(shard, other,
            se.engine_of(shard).now() + se.lookahead() + Duration::us(3),
            [self, other] { self->fire(other); });
  }
};

std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>> run_pingpong(
    int workers) {
  ShardedEngine se(2, Duration::us(10));
  PingPong pp{se, {}, 20};
  PingPong* ppp = &pp;
  se.engine_of(0).schedule_at(Time::from_ns(100), [ppp] { ppp->fire(0); });
  EXPECT_TRUE(se.run_until(Time::from_ns(10'000'000), workers));
  return {pp.fired[0], pp.fired[1]};
}
}  // namespace

TEST(Sharded, WorkerCountDoesNotChangeTheSchedule) {
  const auto one = run_pingpong(1);
  const auto two = run_pingpong(2);
  const auto three = run_pingpong(3);  // more workers than busy shards
  EXPECT_FALSE(one.first.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, three);
}

TEST(Sharded, StopAllEndsTheRunEarly) {
  ShardedEngine se(2, Duration::us(10));
  ShardedEngine* router = &se;
  se.engine_of(0).schedule_at(Time::from_ns(100),
                              [router] { router->stop_all(); });
  se.engine_of(1).schedule_at(Time::from_ns(50'000'000), [] {
    FAIL() << "event past the stop point must not fire";
  });
  EXPECT_FALSE(se.run_until(Time::from_ns(100'000'000), 2));
  EXPECT_EQ(se.events_processed(), 1U);
}

TEST(Sharded, WrapupRunsAtABarrierNotMidWindow) {
  ShardedEngine se(2, Duration::us(10));
  ShardedEngine* router = &se;
  bool ran = false;
  bool* ranp = &ran;
  se.engine_of(0).schedule_at(Time::from_ns(100), [router, ranp] {
    router->request_wrapup([ranp] { *ranp = true; });
  });
  EXPECT_TRUE(se.run_until(Time::from_ns(1'000'000), 2));
  EXPECT_TRUE(ran);
}

TEST(Sharded, DrainReleasesPendingEventsAndInboxes) {
  ShardedEngine se(3, Duration::us(10));
  se.engine_of(0).schedule_at(Time::from_ns(10), [] {});
  se.engine_of(1).schedule_at(Time::from_ns(20), [] {});
  se.post(0, 2, Time::from_ns(100'000), [] {});  // parked in shard 2's inbox
  EXPECT_GE(se.events_pending(), 2U);
  se.drain();
  EXPECT_EQ(se.events_pending(), 0U);
  // Destructor drains again (idempotent) — must not throw under validation.
}

TEST(Sharded, QuietWindowsCoalesceIntoTheChain) {
  // Per-pair planning chains several windows per sync round; a window whose
  // shard has nothing due (rings quiet, next event at or past the end) is
  // counted as coalesced — it degenerates to a clock advance. With shard 1
  // completely idle, every one of its windows must coalesce, and the round
  // count must sit well below the chained-window count (that gap is the
  // barrier reduction the per-pair planner exists for).
  ShardedEngine se(2, Duration::us(10));
  struct Chain {
    Engine& e;
    int remaining;
    void tick() {
      if (--remaining <= 0) return;
      Chain* self = this;
      e.schedule_at(e.now() + Duration::us(2), [self] { self->tick(); });
    }
  };
  Chain c{se.engine_of(0), 200};
  Chain* cp = &c;
  se.engine_of(0).schedule_at(Time::from_ns(100), [cp] { cp->tick(); });
  EXPECT_TRUE(se.run_until(Time::from_ns(2'000'000), 1));
  EXPECT_EQ(c.remaining, 0);
  const PlannerStats st = se.planner_stats();
  EXPECT_GT(st.rounds, 0U);
  EXPECT_GT(st.windows, st.rounds);  // chaining actually happened
  EXPECT_GT(st.coalesced, 0U);       // the idle shard's windows were quiet
}

TEST(Sharded, FullRingBackpressureSpillsToOverflowWithoutLoss) {
  // A burst of posts larger than the ring from within a single event: the
  // consumer cannot drain mid-callback, so everything past the capacity
  // must take the overflow lane — and still be delivered, in order, at its
  // stamped time. One worker keeps the fill deterministic.
  ShardedEngine se(2, Duration::us(10));
  se.set_ring_capacity(8);
  std::vector<int> delivered;  // single worker: no concurrent access
  auto* dp = &delivered;
  ShardedEngine* router = &se;
  se.engine_of(0).schedule_at(Time::from_ns(100), [router, dp] {
    const Time t = router->engine_of(0).now() + Duration::us(10);
    for (int i = 0; i < 40; ++i)
      router->post(0, 1, t + Duration::ns(i), [dp, i] { dp->push_back(i); });
  });
  EXPECT_TRUE(se.run_until(Time::from_ns(1'000'000), 1));
  ASSERT_EQ(delivered.size(), 40U);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(delivered[static_cast<std::size_t>(i)], i);
  const PlannerStats st = se.planner_stats();
  EXPECT_EQ(st.ring_posts, 40U);
  EXPECT_EQ(st.ring_overflows, 32U);  // capacity 8, the rest spilled
}

TEST(Sharded, RingCapacityOneStillDeliversEverythingThroughOverflow) {
  // Degenerate capacity (rounds up to 2): nearly every post overflows.
  // The overflow lane is a correctness path, not best-effort — the digest
  // equivalence across planners depends on it delivering a clean prefix.
  ShardedEngine se(2, Duration::us(10));
  se.set_ring_capacity(1);
  int delivered = 0;
  int* dp = &delivered;
  ShardedEngine* router = &se;
  se.engine_of(0).schedule_at(Time::from_ns(100), [router, dp] {
    const Time t = router->engine_of(0).now() + Duration::us(10);
    for (int i = 0; i < 10; ++i)
      router->post(0, 1, t + Duration::ns(i), [dp] { ++*dp; });
  });
  EXPECT_TRUE(se.run_until(Time::from_ns(1'000'000), 1));
  EXPECT_EQ(delivered, 10);
  const PlannerStats st = se.planner_stats();
  EXPECT_EQ(st.ring_posts, 10U);
  EXPECT_EQ(st.ring_overflows, 8U);  // 2 slots held, 8 spilled
}

TEST(Sharded, TeardownWithPendingEventsDoesNotLeak) {
  // Shutdown leak regression: destroying a sharded engine mid-simulation
  // (events still queued, cross-shard posts undelivered) must release every
  // slot. Under PASCHED_VALIDATE the destructor asserts emptiness itself.
  auto se = std::make_unique<ShardedEngine>(4, Duration::us(10));
  for (int s = 0; s < 4; ++s)
    se->engine_of(s).schedule_at(Time::from_ns(100 + s), [] {});
  se->post(0, 1, Time::from_ns(100'000), [] {});
  se.reset();  // no assertion failure, no leak (ASan would flag one)
}

}  // namespace
