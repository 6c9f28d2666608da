// Timer-tick machinery in depth: cost accounting, burst stretching,
// cluster alignment under clock offsets, decay cadence, and callout
// ordering guarantees.
#include <gtest/gtest.h>

#include <vector>

#include "kern/kernel.hpp"
#include "sim/engine.hpp"

using namespace pasched;
using namespace pasched::sim::literals;
using kern::RunDecision;
using sim::Duration;
using sim::Engine;
using sim::Time;

namespace {

struct Busy final : kern::ThreadClient {
  kern::RunDecision next(Time) override {
    if (done) return RunDecision::block();
    done = true;
    return RunDecision::compute(Duration::sec(1));
  }
  bool done = false;
};

}  // namespace

TEST(KernTicks, TickCostIsAccounted) {
  Engine e;
  kern::Tunables tun;
  tun.tick_cost = Duration::us(4);
  tun.cluster_aligned_ticks = true;
  kern::Kernel k(e, 0, 1, tun, Duration::zero(), 0);
  k.start();
  e.run_until(Time::zero() + Duration::sec(1));
  // 100 ticks of 4 us each.
  EXPECT_EQ(k.accounting().ticks_taken, 100u);
  EXPECT_NEAR(k.accounting().tick_cpu.to_us(), 400.0, 1.0);
}

TEST(KernTicks, SynchronizedTicksPayContentionPremium) {
  kern::Tunables tun;
  tun.tick_cost = Duration::us(4);
  tun.sync_tick_contention = 1.5;
  tun.synchronized_ticks = false;
  EXPECT_EQ(tun.effective_tick_cost().count(), Duration::us(4).count());
  tun.synchronized_ticks = true;
  EXPECT_EQ(tun.effective_tick_cost().count(), Duration::us(6).count());
}

TEST(KernTicks, TickStealsStretchRunningBurst) {
  Engine e;
  kern::Tunables tun;
  tun.tick_cost = Duration::us(100);  // exaggerated for visibility
  tun.context_switch_cost = Duration::ns(1);
  tun.cluster_aligned_ticks = true;
  kern::Kernel k(e, 0, 1, tun, Duration::zero(), 0);
  Busy c;
  kern::ThreadSpec ts;
  ts.name = "busy";
  ts.base_priority = 60;
  ts.fixed_priority = true;
  ts.home_cpu = 0;
  kern::Thread& t = k.create_thread(ts, c);
  k.start();
  k.wake(t);
  // A 1 s burst with 100 ticks of 100 us stolen: finishes ~10 ms late.
  e.run_until(Time::zero() + Duration::sec(1) + Duration::ms(5));
  EXPECT_EQ(t.state(), kern::ThreadState::Running) << "still delayed by ticks";
  e.run_until(Time::zero() + Duration::sec(1) + Duration::ms(15));
  EXPECT_EQ(t.state(), kern::ThreadState::Blocked);
  // Only the burst itself is charged to the thread, not the tick handler.
  EXPECT_NEAR(t.total_cpu().to_ms(), 1000.0, 0.1);
}

TEST(KernTicks, ClusterAlignmentCancelsClockOffsets) {
  // Two kernels with different clock offsets: with cluster alignment their
  // tick instants in *global* time coincide only when offsets are zero.
  auto tick_times = [](Duration offset) {
    Engine e;
    kern::Tunables tun;
    tun.synchronized_ticks = true;
    tun.cluster_aligned_ticks = true;
    kern::Kernel k(e, 0, 1, tun, offset, 0);
    struct Log final : kern::SchedObserver {
      std::vector<Time> ticks;
      void on_tick(Time t, kern::NodeId, kern::CpuId) override {
        ticks.push_back(t);
      }
    } log;
    k.set_observer(&log);
    k.start();
    e.run_until(Time::zero() + 50_ms);
    return log.ticks;
  };
  const auto synced = tick_times(Duration::zero());
  const auto skewed = tick_times(Duration::ms(3));
  ASSERT_GE(synced.size(), 4u);
  ASSERT_GE(skewed.size(), 4u);
  // Aligned in local time: the skewed node's global tick times are shifted
  // by exactly the (uncorrected) offset — this is why the co-scheduler must
  // sync clocks first.
  EXPECT_EQ(synced[0].count() % Duration::ms(10).count(), 0);
  EXPECT_EQ((skewed[0].count() + Duration::ms(3).count()) %
                Duration::ms(10).count(),
            0);
}

TEST(KernTicks, BigTickReducesTickCount) {
  auto ticks_in_second = [](int big) {
    Engine e;
    kern::Tunables tun;
    tun.big_tick = big;
    tun.cluster_aligned_ticks = true;
    kern::Kernel k(e, 0, 2, tun, Duration::zero(), 0);
    k.start();
    e.run_until(Time::zero() + Duration::sec(1));
    return k.accounting().ticks_taken;
  };
  EXPECT_EQ(ticks_in_second(1), 200u);   // 2 cpus x 100 Hz
  EXPECT_EQ(ticks_in_second(25), 8u);    // 2 cpus x 4 Hz
}

TEST(KernTicks, CalloutsFireInDueThenFifoOrder) {
  Engine e;
  kern::Tunables tun;
  tun.big_tick = 25;
  tun.cluster_aligned_ticks = true;
  kern::Kernel k(e, 0, 1, tun, Duration::zero(), 0);
  std::vector<int> order;
  k.start();
  // All due before the first 250 ms tick, registered out of due order.
  k.schedule_callout(0, Time::zero() + 30_ms, [&] { order.push_back(2); });
  k.schedule_callout(0, Time::zero() + 10_ms, [&] { order.push_back(1); });
  k.schedule_callout(0, Time::zero() + 30_ms, [&] { order.push_back(3); });
  k.schedule_callout(0, Time::zero() + 40_ms, [&] { order.push_back(4); });
  e.run_until(Time::zero() + 300_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(KernTicks, CalloutMayRescheduleItself) {
  Engine e;
  kern::Tunables tun;
  tun.cluster_aligned_ticks = true;
  kern::Kernel k(e, 0, 1, tun, Duration::zero(), 0);
  int fires = 0;
  std::function<void()> periodic = [&] {
    ++fires;
    if (fires < 5)
      k.schedule_callout(0, k.local_now() + 10_ms, [&] { periodic(); });
  };
  k.schedule_callout(0, Time::zero() + 10_ms, [&] { periodic(); });
  k.start();
  e.run_until(Time::zero() + 200_ms);
  EXPECT_EQ(fires, 5);
}

TEST(KernTicks, DecayHalvesRecentCpuEachPeriod) {
  Engine e;
  kern::Tunables tun;
  tun.decay_period = Duration::sec(1);
  tun.cluster_aligned_ticks = true;
  kern::Kernel k(e, 0, 1, tun, Duration::zero(), 0);
  Busy c;
  kern::ThreadSpec ts;
  ts.name = "w";
  ts.base_priority = 60;
  ts.fixed_priority = false;
  ts.home_cpu = 0;
  kern::Thread& t = k.create_thread(ts, c);
  k.start();
  k.wake(t);
  // The burst (stretched slightly by tick costs) completes just after the
  // 1 s decay point, so the first halving it sees is the one at 2 s.
  e.run_until(Time::zero() + Duration::ms(2050));
  const auto after_decay = t.recent_cpu();
  EXPECT_LT(after_decay.count(), Duration::ms(700).count());
  EXPECT_GT(after_decay.count(), Duration::ms(300).count());
  // Several idle decay periods later the penalty has largely evaporated.
  e.run_until(Time::zero() + Duration::sec(8));
  EXPECT_LT(t.recent_cpu().count(), Duration::ms(20).count());
  EXPECT_LE(t.effective_priority(), 63);
}

TEST(KernTicks, StaggerSpreadsCpuPhasesEvenly) {
  Engine e;
  kern::Tunables tun;
  tun.synchronized_ticks = false;
  tun.cluster_aligned_ticks = true;
  kern::Kernel k(e, 0, 10, tun, Duration::zero(), 0);
  struct Log final : kern::SchedObserver {
    std::vector<std::pair<Time, int>> ticks;
    void on_tick(Time t, kern::NodeId, kern::CpuId c) override {
      ticks.emplace_back(t, c);
    }
  } log;
  k.set_observer(&log);
  k.start();
  e.run_until(Time::zero() + 11_ms);
  // The paper's example: on a 10-way MP, CPU i ticks at x + i ms.
  ASSERT_GE(log.ticks.size(), 10u);
  for (const auto& [t, c] : log.ticks)
    EXPECT_EQ(t.count() % Duration::ms(10).count(),
              Duration::ms(1).count() * c);
}
