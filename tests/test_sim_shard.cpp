// Tests for the partitioned simulation core: Engine's conservative-window
// primitives (run_before, drain, heap compaction after mass cancellation)
// and ShardedEngine's cross-shard posting, window planning, horizon waits,
// inbound ring lists, teardown, the lookahead check on posts, and errors
// thrown inside the worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "race/monitor.hpp"
#include "sim/engine.hpp"
#include "sim/planner.hpp"
#include "sim/shard.hpp"
#include "util/aligned.hpp"
#include "util/fnv1a.hpp"

namespace {

using pasched::sim::Duration;
using pasched::sim::Engine;
using pasched::sim::EventId;
using pasched::sim::PlannerStats;
using pasched::sim::ShardedEngine;
using pasched::sim::ShardMap;
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

TEST(EngineDelivery, NextDeliveryTimeFindsTheEarliestPendingDelivery) {
  Engine e;
  EXPECT_EQ(e.next_delivery_time(), Time::max());
  for (int t = 1; t <= 50; ++t)  // plain events around the deliveries
    e.schedule_at(Time::from_ns(10 * t), [] {});
  const EventId late = e.schedule_delivery(Time::from_ns(300), [] {});
  e.schedule_delivery(Time::from_ns(205), [] {});
  e.schedule_delivery(Time::from_ns(205), [] {});
  EXPECT_EQ(e.next_delivery_time(), Time::from_ns(205));
  // The limit caps the answer (and the walk).
  EXPECT_EQ(e.next_delivery_time(Time::from_ns(150)), Time::from_ns(150));
  e.run_before(Time::from_ns(206));  // both 205 ns deliveries fire
  EXPECT_EQ(e.next_delivery_time(), Time::from_ns(300));
  e.cancel(late);
  EXPECT_EQ(e.next_delivery_time(), Time::max());
  e.check_consistent();
  e.schedule_delivery(Time::from_ns(400), [] {});
  e.drain();
  EXPECT_EQ(e.next_delivery_time(), Time::max());
  e.check_consistent();
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
  // re-posted thousands of times with window boundaries (run_before)
  // interleaved. The footprint must stay bounded and the slot table
  // consistent throughout.
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
  // on its own engine. Exercises cancel()'s indexed removal against the
  // window planner's next_event_time() reads.
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
  ShardedEngine se(ShardMap::identity(2), Duration::us(10));
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
  ShardedEngine se(ShardMap::identity(1), Duration::us(10));
  EXPECT_EQ(se.partitions(), 1);
}

TEST(Sharded, MultiNodeClustersGetOneShardPerBlock) {
  // No shard beyond the blocks: the combine unit of hardware collectives
  // lives on block 0.
  ShardedEngine per_node(ShardMap::identity(4), Duration::us(10));
  EXPECT_EQ(per_node.partitions(), 4);
  EXPECT_EQ(per_node.shard_of_node(2), 2);
  ShardedEngine blocks(ShardMap(20), Duration::us(10));
  EXPECT_EQ(blocks.partitions(), pasched::sim::kShardBlocks);
  EXPECT_EQ(blocks.shard_of_node(0), 0);
  EXPECT_EQ(blocks.shard_of_node(2), 0);
  EXPECT_EQ(blocks.shard_of_node(3), 1);
  EXPECT_EQ(blocks.shard_of_node(19), pasched::sim::kShardBlocks - 1);
}

// Satellite regression: an event posted exactly at the window edge
// (t == now + lookahead) must land in the *next* window of the destination
// shard — after every event the destination fires strictly before the edge,
// and in FIFO position among events at the edge itself.
TEST(Sharded, PostAtExactWindowEdgeLandsInTheNextWindow) {
  const Duration kLookahead = Duration::us(10);
  ShardedEngine se(ShardMap::identity(2), kLookahead);
  std::vector<int> order;      // single worker: no concurrent access
  std::vector<std::int64_t> cross_fired_at;
  se.engine_of(1).schedule_at(Time::from_ns(9999),
                              [&order] { order.push_back(1); });
  se.engine_of(1).schedule_at(Time::from_ns(10000),
                              [&order] { order.push_back(2); });
  ShardedEngine* sharded = &se;
  auto* ord = &order;
  auto* cross = &cross_fired_at;
  se.engine_of(0).schedule_at(Time::zero(), [sharded, ord, cross] {
    // t == src.now() + lookahead: legal (>=) but right on the edge.
    sharded->post(0, 1, sharded->engine_of(0).now() + Duration::us(10),
                 [sharded, ord, cross] {
                   ord->push_back(3);
                   cross->push_back(sharded->engine_of(1).now().count());
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
  ShardedEngine se(ShardMap::identity(2), Duration::us(10));
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
  ShardedEngine se(ShardMap::identity(2), Duration::us(10));
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
  ShardedEngine se(ShardMap::identity(2), Duration::us(10));
  ShardedEngine* sharded = &se;
  se.engine_of(0).schedule_at(Time::from_ns(100),
                              [sharded] { sharded->stop_all(); });
  se.engine_of(1).schedule_at(Time::from_ns(50'000'000), [] {
    FAIL() << "event past the stop point must not fire";
  });
  EXPECT_FALSE(se.run_until(Time::from_ns(100'000'000), 2));
  EXPECT_EQ(se.events_processed(), 1U);
}

TEST(Sharded, WrapupRunsAtABarrierNotMidWindow) {
  ShardedEngine se(ShardMap::identity(2), Duration::us(10));
  ShardedEngine* sharded = &se;
  bool ran = false;
  bool* ranp = &ran;
  se.engine_of(0).schedule_at(Time::from_ns(100), [sharded, ranp] {
    sharded->request_wrapup([ranp] { *ranp = true; });
  });
  EXPECT_TRUE(se.run_until(Time::from_ns(1'000'000), 2));
  EXPECT_TRUE(ran);
}

TEST(Sharded, ThrowingWrapupIsRethrownFromRunUntil) {
  // The wrapup runs in the rendezvous' completion step on whichever worker
  // arrived last, while its peers spin on the rendezvous: the error must
  // poison the pool, release them, and surface from run_until.
  for (const int workers : {2, 3}) {
    SCOPED_TRACE(workers);
    ShardedEngine se(ShardMap::identity(3), Duration::us(10));
    ShardedEngine* sharded = &se;
    se.engine_of(0).schedule_at(Time::from_ns(100), [sharded] {
      sharded->request_wrapup(
          [] { throw pasched::check::CheckError("wrapup refused"); });
    });
    for (int s = 1; s < 3; ++s)
      se.engine_of(s).schedule_at(Time::from_ns(5'000'000), [] {});
    try {
      se.run_until(Time::from_ns(10'000'000), workers);
      ADD_FAILURE() << "the wrapup's error was swallowed";
    } catch (const pasched::check::CheckError& e) {
      EXPECT_STREQ(e.what(), "wrapup refused");
    }
  }
}

TEST(Sharded, WorkerExceptionMidChainIsRethrown) {
  // Three shards tick every microsecond; shard 1 throws at 35 us, inside
  // window 4 of the first round's chain of kWindowBatch 10 us windows.
  // With peers, they then wait for its window-4 horizon, which never
  // comes: the poison must release them, and the rendezvous after the
  // chain must not hold them either.
  for (const int workers : {1, 2, 3}) {
    SCOPED_TRACE(workers);
    ShardedEngine se(ShardMap::identity(3), Duration::us(10));
    struct Ticks {
      ShardedEngine& se;
      void tick(int shard) {
        const Time now = se.engine_of(shard).now();
        if (shard == 1 && now == Time::from_ns(35'000))
          throw std::runtime_error("shard 1 failed");
        Ticks* self = this;
        se.engine_of(shard).schedule_at(now + Duration::us(1),
                                        [self, shard] { self->tick(shard); });
      }
    } ticks{se};
    Ticks* t = &ticks;
    for (int s = 0; s < 3; ++s)
      se.engine_of(s).schedule_at(Time::zero(), [t, s] { t->tick(s); });
    try {
      se.run_until(Time::from_ns(2'000'000), workers);
      ADD_FAILURE() << "the worker's error was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1 failed");
    }
    const PlannerStats st = se.planner_stats();
    EXPECT_EQ(st.rounds, 1U);
    EXPECT_EQ(st.windows,
              static_cast<std::uint64_t>(pasched::sim::kWindowBatch));
  }
}

namespace {
// Both shards run a local 1 us clock for 1 ms; shard 0 posts once, at
// 500 us. The clocks never post, which an OutputBound can say.
struct QuietClocks {
  ShardedEngine& se;
  std::vector<std::int64_t> fired[2];
  bool posted = false;  // shard 0's state

  void tick(int shard) {
    const Time now = se.engine_of(shard).now();
    fired[shard].push_back(now.count());
    if (shard == 0 && now == Time::from_ns(500'000)) {
      posted = true;
      QuietClocks* self = this;
      se.post(0, 1, now + Duration::us(15),
              [self] { self->fired[1].push_back(-1); });
    }
    if (now >= Time::from_ns(1'000'000)) return;
    QuietClocks* self = this;
    se.engine_of(shard).schedule_at(now + Duration::us(1),
                                    [self, shard] { self->tick(shard); });
  }
};

std::pair<QuietClocks, std::uint64_t> run_quiet_clocks(bool bounded) {
  ShardedEngine se(ShardMap::identity(2), Duration::us(10));
  QuietClocks qc{se, {}, false};
  QuietClocks* q = &qc;
  if (bounded) {
    se.set_output_bound([q](int shard, Time /*floor*/) {
      return shard == 0 && !q->posted ? Time::from_ns(500'000) : Time::max();
    });
  }
  for (int s = 0; s < 2; ++s)
    se.engine_of(s).schedule_at(Time::zero(), [q, s] { q->tick(s); });
  EXPECT_TRUE(se.run_until(Time::from_ns(2'000'000), 2));
  return {std::move(qc), se.planner_stats().rounds};
}
}  // namespace

TEST(Sharded, OutputBoundSkipsQuietEventsWithoutChangingTheHistory) {
  const auto [plain, plain_rounds] = run_quiet_clocks(false);
  const auto [bounded, bounded_rounds] = run_quiet_clocks(true);
  EXPECT_EQ(plain.fired[0], bounded.fired[0]);
  EXPECT_EQ(plain.fired[1], bounded.fired[1]);
  ASSERT_EQ(std::count(bounded.fired[1].begin(), bounded.fired[1].end(), -1),
            1);
  // Next-event windows stop every 10 us of clock; output-time windows run
  // to the post, then to the deadline.
  EXPECT_GE(plain_rounds, 12U);
  EXPECT_LE(bounded_rounds, 4U);
}

TEST(Sharded, PostBeforeTheClaimedOutputTimeIsCaught) {
  if (!PASCHED_VALIDATE_ENABLED)
    GTEST_SKIP() << "the output-time claim is checked in validated builds";
  // The bound over-states shard 0's earliest output (1 s) while an event
  // posts at 100 us: post() must refute the claim, naming the shard, the
  // round, the send time and the claim.
  ShardedEngine se(ShardMap::identity(2), Duration::us(10));
  se.set_output_bound([](int /*shard*/, Time /*floor*/) {
    return Time::from_ns(1'000'000'000);
  });
  ShardedEngine* sharded = &se;
  se.engine_of(0).schedule_at(Time::from_ns(100'000), [sharded] {
    sharded->post(0, 1, sharded->engine_of(0).now() + Duration::us(10), [] {});
  });
  try {
    se.run_until(Time::from_ns(10'000'000), 2);
    FAIL() << "the over-stated output time went unnoticed";
  } catch (const pasched::check::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("round 1"), std::string::npos) << what;
    EXPECT_NE(what.find("sent_at=100000 ns"), std::string::npos) << what;
    EXPECT_NE(what.find("O*=1000000000 ns"), std::string::npos) << what;
  }
}

TEST(Sharded, OneBlockIsOneShard) {
  ShardedEngine se(ShardMap(9, 1), Duration::us(10));
  EXPECT_EQ(se.partitions(), 1);
  EXPECT_EQ(se.shard_of_node(8), 0);
}

TEST(Sharded, OneShardStopsAtTheEventThatCallsStopAll) {
  // The serial executor: no windows, so the run ends at the stopping event
  // itself and the before-now count is exactly "events before the stop".
  ShardedEngine se(ShardMap(4, 1), Duration::us(10));
  ShardedEngine* sharded = &se;
  Engine& e = se.engine_of(0);
  e.schedule_at(Time::from_ns(50), [] {});
  e.schedule_at(Time::from_ns(100), [sharded] { sharded->stop_all(); });
  e.schedule_at(Time::from_ns(100), [] {
    FAIL() << "an event tied with the stop but queued after it must not fire";
  });
  e.schedule_at(Time::from_ns(200), [] {
    FAIL() << "event past the stop point must not fire";
  });
  EXPECT_FALSE(se.run_until(Time::from_ns(1'000'000), 4));
  EXPECT_EQ(e.now(), Time::from_ns(100));
  EXPECT_EQ(se.events_processed(), 2U);
  EXPECT_EQ(se.events_processed_before(e.now()), 1U);
  EXPECT_EQ(se.events_processed_before(e.now()),
            e.events_processed_before_now());
  // No fire log is kept: a one-shard run has no window tail to subtract.
  EXPECT_EQ(e.fires_at_or_after(Time::zero()), 0U);
  EXPECT_EQ(se.planner_stats().rounds, 0U);
}

TEST(Sharded, OneShardRunsWrapupsAndThePrologueInline) {
  ShardedEngine se(ShardMap(4, 1), Duration::us(10));
  ShardedEngine* sharded = &se;
  std::vector<int> order;
  std::vector<int>* orderp = &order;
  se.engine_of(0).schedule_at(Time::from_ns(100), [sharded, orderp] {
    sharded->request_wrapup([orderp] { orderp->push_back(1); });
    orderp->push_back(2);
  });
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id prologue_thread;
  se.set_prologue([&prologue_thread, orderp](int shard) {
    EXPECT_EQ(shard, 0);
    prologue_thread = std::this_thread::get_id();
    orderp->push_back(0);
  });
  EXPECT_TRUE(se.run_until(Time::from_ns(1000), 8));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(prologue_thread, caller);
  EXPECT_EQ(se.engine_of(0).now(), Time::from_ns(1000));
}

TEST(Sharded, DrainReleasesPendingEventsAndInboxes) {
  ShardedEngine se(ShardMap::identity(3), Duration::us(10));
  se.engine_of(0).schedule_at(Time::from_ns(10), [] {});
  se.engine_of(1).schedule_at(Time::from_ns(20), [] {});
  se.post(0, 2, Time::from_ns(100'000), [] {});  // parked in shard 2's inbox
  EXPECT_GE(se.events_pending(), 2U);
  se.drain();
  EXPECT_EQ(se.events_pending(), 0U);
  // Destructor drains again (idempotent) — must not throw under validation.
}

TEST(Sharded, QuietWindowsCoalesceIntoTheChain) {
  // The planner chains several windows per sync round; a window whose
  // shard has nothing due (rings quiet, next event at or past the end) is
  // counted as coalesced — it degenerates to a clock advance. With shard 1
  // completely idle, every one of its windows must coalesce, and the round
  // count must sit well below the chained-window count (that gap is the
  // barrier reduction window chaining exists for).
  ShardedEngine se(ShardMap::identity(2), Duration::us(10));
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
  ShardedEngine se(ShardMap::identity(2), Duration::us(10));
  se.set_ring_capacity(8);
  std::vector<int> delivered;  // single worker: no concurrent access
  auto* dp = &delivered;
  ShardedEngine* sharded = &se;
  se.engine_of(0).schedule_at(Time::from_ns(100), [sharded, dp] {
    const Time t = sharded->engine_of(0).now() + Duration::us(10);
    for (int i = 0; i < 40; ++i)
      sharded->post(0, 1, t + Duration::ns(i), [dp, i] { dp->push_back(i); });
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
  ShardedEngine se(ShardMap::identity(2), Duration::us(10));
  se.set_ring_capacity(1);
  int delivered = 0;
  int* dp = &delivered;
  ShardedEngine* sharded = &se;
  se.engine_of(0).schedule_at(Time::from_ns(100), [sharded, dp] {
    const Time t = sharded->engine_of(0).now() + Duration::us(10);
    for (int i = 0; i < 10; ++i)
      sharded->post(0, 1, t + Duration::ns(i), [dp] { ++*dp; });
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
  auto se = std::make_unique<ShardedEngine>(ShardMap::identity(4),
                                            Duration::us(10));
  for (int s = 0; s < 4; ++s)
    se->engine_of(s).schedule_at(Time::from_ns(100 + s), [] {});
  se->post(0, 1, Time::from_ns(100'000), [] {});
  se.reset();  // no assertion failure, no leak (ASan would flag one)
}

TEST(Sharded, RingFirstPostedMidChainIsDrainedByTheNextWindow) {
  // Every shard starts at 1 us on a flat 10 us fabric, so round 1 chains
  // W(j) = 1 + 10j us on every shard. Shard 0's first post to shard 1
  // happens at 16 us, in window 2, and lands at 26 us, in window 3. The
  // ring is materialized mid-chain, so shard 1 can only deliver it on time
  // if its window-3 drain finds the ring through its inbound list.
  for (const int workers : {1, 2, 3}) {
    ShardedEngine se(ShardMap::identity(2), Duration::us(10));
    std::vector<std::int64_t> shard1;  // touched only by shard 1's worker
    std::int64_t cross_now = -1;
    auto* log = &shard1;
    auto* cross = &cross_now;
    ShardedEngine* sharded = &se;
    for (int s = 0; s < se.partitions(); ++s)
      se.engine_of(s).schedule_at(Time::from_ns(1000), [] {});
    se.engine_of(1).schedule_at(Time::from_ns(25'500),
                                [log] { log->push_back(25'500); });
    se.engine_of(1).schedule_at(Time::from_ns(26'500),
                                [log] { log->push_back(26'500); });
    se.engine_of(0).schedule_at(Time::from_ns(16'000), [sharded, log, cross] {
      sharded->post(0, 1, Time::from_ns(26'000), [sharded, log, cross] {
        log->push_back(26'000);
        *cross = sharded->engine_of(1).now().count();
      });
    });
    EXPECT_TRUE(se.run_until(Time::from_ns(1'000'000), workers));
    EXPECT_EQ(cross_now, 26'000) << "workers=" << workers;
    EXPECT_EQ(shard1, (std::vector<std::int64_t>{25'500, 26'000, 26'500}))
        << "workers=" << workers;
    EXPECT_EQ(se.planner_stats().ring_posts, 1U);
  }
}

namespace {
// Deterministic cross-shard traffic: one token per shard hops 40 times,
// alternating a local step with a post to a peer picked from the token's
// state. Each shard logs (time, state) of every event it fires; the digest
// folds the logs in shard order.
struct Traffic {
  ShardedEngine& se;
  std::vector<pasched::util::CacheAligned<std::vector<std::uint64_t>>> log;

  explicit Traffic(ShardedEngine& engine)
      : se(engine),
        log(static_cast<std::size_t>(engine.partitions())) {}

  void fire(int s, std::uint64_t state, int hops) {
    Engine& e = se.engine_of(s);
    auto& mine = log[static_cast<std::size_t>(s)].v;
    mine.push_back(static_cast<std::uint64_t>(e.now().count()));
    mine.push_back(state);
    if (hops == 0) return;
    const std::uint64_t next =
        state * 6364136223846793005ULL + 1442695040888963407ULL;
    Traffic* self = this;
    if (hops % 2 == 0) {
      e.schedule_at(e.now() + Duration::ns(static_cast<std::int64_t>(
                                  1 + (next >> 40) % 3000)),
                    [self, s, next, hops] { self->fire(s, next, hops - 1); });
      return;
    }
    const int S = se.partitions();
    int dst = static_cast<int>((next >> 33) % static_cast<std::uint64_t>(S));
    if (dst == s) dst = (dst + 1) % S;
    const Duration jitter =
        Duration::ns(static_cast<std::int64_t>((next >> 17) % 5000));
    se.post(s, dst, e.now() + se.lookahead() + jitter,
            [self, dst, next, hops] { self->fire(dst, next, hops - 1); });
  }

  [[nodiscard]] std::uint64_t digest() const {
    pasched::util::Fnv1a h;
    for (const auto& shard : log) {
      h.mix(shard.v.size());
      for (const std::uint64_t v : shard.v) h.mix(v);
    }
    return h.value();
  }
};

struct TrafficRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  PlannerStats stats;
};

TrafficRun run_traffic(int nodes, int workers,
                       pasched::race::Monitor* monitor = nullptr) {
  ShardedEngine se(ShardMap::identity(nodes), Duration::us(10));
  se.set_monitor(monitor);
  Traffic tr(se);
  Traffic* trp = &tr;
  for (int s = 0; s < se.partitions(); ++s)
    se.engine_of(s).schedule_at(
        Time::from_ns(100 + 37 * s), [trp, s] {
          trp->fire(s, static_cast<std::uint64_t>(s) + 1, 40);
        });
  EXPECT_TRUE(se.run_until(Time::from_ns(20'000'000), workers));
  return {tr.digest(), se.events_processed(), se.planner_stats()};
}
}  // namespace

TEST(Sharded, ManyShardsPerWorkerKeepTheDigest) {
  // 128 shards on 1, 2 and 5 workers: most workers run dozens of shards
  // per window, and 128 is not a multiple of 5, so the last pass of each
  // of those workers covers a different number of shards.
  const TrafficRun one = run_traffic(128, 1);
  EXPECT_EQ(one.events, 128U * 41U);
  EXPECT_GT(one.stats.ring_posts, 0U);
  for (const int workers : {2, 5}) {
    const TrafficRun many = run_traffic(128, workers);
    EXPECT_EQ(many.digest, one.digest) << "workers=" << workers;
    EXPECT_EQ(many.events, one.events) << "workers=" << workers;
    EXPECT_EQ(many.stats.rounds, one.stats.rounds) << "workers=" << workers;
    EXPECT_EQ(many.stats.windows, one.stats.windows) << "workers=" << workers;
    EXPECT_EQ(many.stats.coalesced, one.stats.coalesced)
        << "workers=" << workers;
    EXPECT_EQ(many.stats.ring_posts, one.stats.ring_posts)
        << "workers=" << workers;
  }
}

namespace {
// Node-level traffic on a block map: one token per node hops 40 times,
// alternating a local step with a send to another node at least the
// lookahead later, posted between the nodes' shards (a plain schedule_at
// when both sit in one block). Every event of token k fires at a time
// congruent to k mod 16, so no two events of one node ever tie and each
// node's history is fully ordered by time. Nodes log (time, token, state).
struct NodeTraffic {
  ShardedEngine& se;
  int nodes;
  std::vector<pasched::util::CacheAligned<std::vector<std::uint64_t>>> log;

  NodeTraffic(ShardedEngine& engine, int n)
      : se(engine), nodes(n), log(static_cast<std::size_t>(n)) {}

  // The first instant at or after `earliest` that belongs to `token`.
  static Time slot(Time earliest, int token) {
    const std::int64_t ns = earliest.count();
    return Time::from_ns(ns + ((token - ns % 16) % 16 + 16) % 16);
  }

  void fire(int node, int token, std::uint64_t state, int hops) {
    const int shard = se.shard_of_node(node);
    Engine& e = se.engine_of(shard);
    auto& mine = log[static_cast<std::size_t>(node)].v;
    mine.push_back(static_cast<std::uint64_t>(e.now().count()));
    mine.push_back(static_cast<std::uint64_t>(token));
    mine.push_back(state);
    if (hops == 0) return;
    const std::uint64_t next =
        state * 6364136223846793005ULL + 1442695040888963407ULL;
    NodeTraffic* self = this;
    if (hops % 2 == 0) {
      const Duration step =
          Duration::ns(static_cast<std::int64_t>(1 + (next >> 40) % 3000));
      e.schedule_at(slot(e.now() + step, token),
                    [self, node, token, next, hops] {
                      self->fire(node, token, next, hops - 1);
                    });
      return;
    }
    int dst =
        static_cast<int>((next >> 33) % static_cast<std::uint64_t>(nodes));
    if (dst == node) dst = (dst + 1) % nodes;
    const Duration wire =
        se.lookahead() +
        Duration::ns(static_cast<std::int64_t>((next >> 17) % 5000));
    se.post(shard, se.shard_of_node(dst), slot(e.now() + wire, token),
            [self, dst, token, next, hops] {
              self->fire(dst, token, next, hops - 1);
            });
  }
};

struct NodeTrafficRun {
  std::vector<std::vector<std::uint64_t>> per_node;
  PlannerStats stats;
};

NodeTrafficRun run_node_traffic(const ShardMap& map, int workers) {
  ShardedEngine se(map, Duration::us(10));
  NodeTraffic tr(se, map.nodes());
  NodeTraffic* trp = &tr;
  for (int n = 0; n < map.nodes(); ++n)
    se.engine_of(se.shard_of_node(n))
        .schedule_at(NodeTraffic::slot(Time::from_ns(100 + 37 * n), n),
                     [trp, n] {
                       trp->fire(n, n, static_cast<std::uint64_t>(n) + 1, 40);
                     });
  EXPECT_TRUE(se.run_until(Time::from_ns(20'000'000), workers));
  NodeTrafficRun out;
  for (const auto& l : tr.log) out.per_node.push_back(l.v);
  out.stats = se.planner_stats();
  return out;
}
}  // namespace

TEST(Sharded, BlockMapsKeepEveryNodeHistory) {
  // Nine nodes as nine one-node blocks, three blocks of three, and one block
  // of nine, each on 1, 3 and 8 workers: how nodes are grouped into shards
  // and how shards are spread over workers must not change what any node
  // sees, or when.
  const int kNodes = 9;
  const NodeTrafficRun ref = run_node_traffic(ShardMap::identity(kNodes), 1);
  ASSERT_EQ(ref.per_node.size(), static_cast<std::size_t>(kNodes));
  std::size_t events = 0;
  for (const auto& h : ref.per_node) events += h.size() / 3;
  EXPECT_EQ(events, static_cast<std::size_t>(kNodes) * 41U);
  EXPECT_GT(ref.stats.ring_posts, 0U);
  for (const int blocks : {kNodes, 3, 1}) {
    for (const int workers : {1, 3, 8}) {
      const NodeTrafficRun run =
          run_node_traffic(ShardMap(kNodes, blocks), workers);
      EXPECT_EQ(run.per_node, ref.per_node)
          << "blocks=" << blocks << " workers=" << workers;
      // One block holds every node: each send is a local schedule_at.
      if (blocks == 1) {
        EXPECT_EQ(run.stats.ring_posts, 0U);
      }
      if (blocks == 3) {
        EXPECT_LT(run.stats.ring_posts, ref.stats.ring_posts);
      }
    }
  }
}

TEST(Sharded, RaceMonitorSeesTheRecordedHorizonEdges) {
  // The ShardMonitor seam contract: one horizon publish per shard per
  // chained window, and before every window j >= 2 one horizon wait per
  // (shard, peer) pair. The counts below were recorded with one worker;
  // per-worker progress counters must reproduce them exactly, on any worker
  // count.
  for (const int workers : {1, 3}) {
    pasched::race::Monitor mon(8);
    run_traffic(8, workers, &mon);
    const auto st = mon.stats();
    // 8 shards x 32 chained windows in 4 rounds, then the final window.
    EXPECT_EQ(st.horizon_publishes, 256U) << "workers=" << workers;
    EXPECT_EQ(st.horizon_waits, 1568U) << "workers=" << workers;  // 8*7*28
    EXPECT_EQ(st.windows, 264U) << "workers=" << workers;
    EXPECT_EQ(st.plans, 5U) << "workers=" << workers;
    EXPECT_EQ(st.posts, 160U) << "workers=" << workers;
    EXPECT_EQ(st.admits, 160U) << "workers=" << workers;
  }
}

}  // namespace
