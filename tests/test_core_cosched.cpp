// The co-scheduler: window mechanics, priority flips, clock-boundary
// alignment, registration through the control pipe, detach/attach, shutdown,
// and the starvation boundary.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "core/coscheduler.hpp"
#include "core/presets.hpp"
#include "kern/kernel.hpp"
#include "serial_engine.hpp"
#include "sim/engine.hpp"

using namespace pasched;
using namespace pasched::sim::literals;
using sim::Duration;
using sim::Engine;
using sim::Time;
using testutil::SerialEngine;

namespace {

struct Spinner final : kern::ThreadClient {
  kern::RunDecision next(Time) override { return kern::RunDecision::spin(); }
};

cluster::ClusterConfig small_cluster(int nodes) {
  cluster::ClusterConfig cfg = cluster::presets::frost(nodes);
  cfg.node.ncpus = 4;
  cfg.node.install_daemons = false;
  cfg.seed = 2;
  return cfg;
}

core::CoschedConfig fast_cosched() {
  core::CoschedConfig cc = core::paper_cosched();
  cc.period = Duration::sec(1);
  cc.duty = 0.8;
  return cc;
}

}  // namespace

TEST(CoSched, FlipsTaskPrioritiesOverTheWindow) {
  SerialEngine serial(1);
  Engine& e = serial.engine;
  cluster::Cluster cl(serial.sharded, small_cluster(1));
  core::CoschedManager mgr(cl, fast_cosched());
  kern::Kernel& k = cl.node(0).kernel();
  Spinner sp;
  kern::ThreadSpec ts;
  ts.name = "task";
  ts.base_priority = 60;
  ts.home_cpu = 1;
  kern::Thread& t = k.create_thread(ts, sp);
  cl.start();
  k.wake(t);
  mgr.register_task(0, t);
  // Windows are aligned to 1 s boundaries. Inside the favored part the task
  // runs at the fixed favored priority.
  e.run_until(Time::zero() + Duration::ms(1500));
  EXPECT_EQ(t.effective_priority(), 30);
  EXPECT_TRUE(t.fixed_priority());
  // At 80% duty, from 1.8 s the task is unfavored.
  e.run_until(Time::zero() + Duration::ms(1900));
  EXPECT_EQ(t.effective_priority(), 100);
  // Next window re-favors.
  e.run_until(Time::zero() + Duration::ms(2100));
  EXPECT_EQ(t.effective_priority(), 30);
  EXPECT_GE(mgr.total_stats().windows, 2u);
  EXPECT_EQ(mgr.total_stats().registered, 1u);
}

TEST(CoSched, WindowBoundariesAlignAcrossNodesWhenSynced) {
  cluster::ClusterConfig cfg = small_cluster(3);
  cfg.node.max_clock_offset = Duration::ms(80);
  SerialEngine serial(cfg.nodes);
  Engine& e = serial.engine;
  cluster::Cluster cl(serial.sharded, cfg);
  core::CoschedConfig cc = fast_cosched();
  cc.sync_clocks = true;
  cc.align_to_period_boundary = true;
  core::CoschedManager mgr(cl, cc);
  EXPECT_LE(mgr.sync_residual().count(), Duration::us(2).count());

  std::vector<kern::Thread*> tasks;
  std::vector<std::unique_ptr<Spinner>> spinners;
  for (int n = 0; n < 3; ++n) {
    spinners.push_back(std::make_unique<Spinner>());
    kern::ThreadSpec ts;
    ts.name = "task";
    ts.base_priority = 60;
    ts.home_cpu = 0;
    kern::Thread& t = cl.node(n).kernel().create_thread(ts, *spinners.back());
    tasks.push_back(&t);
  }
  cl.start();
  for (int n = 0; n < 3; ++n) {
    cl.node(n).kernel().wake(*tasks[n]);
    mgr.register_task(n, *tasks[n]);
  }
  // Probe half-way into a favored phase and inside the unfavored phase:
  // all nodes agree on the phase because boundaries are global multiples.
  e.run_until(Time::zero() + Duration::ms(2300));
  for (auto* t : tasks) EXPECT_EQ(t->effective_priority(), 30);
  e.run_until(Time::zero() + Duration::ms(2900));
  for (auto* t : tasks) EXPECT_EQ(t->effective_priority(), 100);
}

TEST(CoSched, RegistrationGoesThroughThePipeDelay) {
  SerialEngine serial(1);
  Engine& e = serial.engine;
  cluster::Cluster cl(serial.sharded, small_cluster(1));
  core::CoschedConfig cc = fast_cosched();
  cc.pipe_delay = Duration::ms(5);
  core::CoschedManager mgr(cl, cc);
  kern::Kernel& k = cl.node(0).kernel();
  Spinner sp, dummy_client;
  kern::ThreadSpec ts;
  ts.name = "task";
  ts.base_priority = 60;
  ts.home_cpu = 0;
  kern::Thread& t = k.create_thread(ts, sp);
  // A first registration at t=0 instantiates the node's co-scheduler, so
  // its windows are running by the time the real task registers.
  kern::ThreadSpec ds = ts;
  ds.name = "dummy";
  kern::Thread& dummy = k.create_thread(ds, dummy_client);
  mgr.register_task(0, dummy);
  cl.start();
  // Let the first window start so registration applies the phase directly.
  e.run_until(Time::zero() + Duration::ms(1200));
  k.wake(t);
  mgr.register_task(0, t);
  e.run_until(Time::zero() + Duration::ms(1202));
  EXPECT_NE(t.effective_priority(), 30) << "pipe delay not yet elapsed";
  e.run_until(Time::zero() + Duration::ms(1210));
  EXPECT_EQ(t.effective_priority(), 30) << "actively co-scheduled on arrival";
}

TEST(CoSched, DetachRestoresNormalPriorityAttachRejoins) {
  SerialEngine serial(1);
  Engine& e = serial.engine;
  cluster::Cluster cl(serial.sharded, small_cluster(1));
  core::CoschedManager mgr(cl, fast_cosched());
  kern::Kernel& k = cl.node(0).kernel();
  Spinner sp;
  kern::ThreadSpec ts;
  ts.name = "task";
  ts.base_priority = 60;
  ts.home_cpu = 0;
  kern::Thread& t = k.create_thread(ts, sp);
  cl.start();
  k.wake(t);
  mgr.register_task(0, t);
  e.run_until(Time::zero() + Duration::ms(1500));
  ASSERT_EQ(t.effective_priority(), 30);
  mgr.detach_task(0, t);
  e.run_until(Time::zero() + Duration::ms(1510));
  EXPECT_FALSE(t.fixed_priority());
  EXPECT_EQ(t.base_priority(), kern::kNormalUserBase);
  // While detached, window flips do not touch the task.
  e.run_until(Time::zero() + Duration::ms(1900));  // unfavored phase
  EXPECT_FALSE(t.fixed_priority());
  mgr.attach_task(0, t);
  e.run_until(Time::zero() + Duration::ms(1950));
  EXPECT_EQ(t.effective_priority(), 100) << "attached mid-unfavored-phase";
}

TEST(CoSched, ShutdownStopsFlipping) {
  SerialEngine serial(1);
  Engine& e = serial.engine;
  cluster::Cluster cl(serial.sharded, small_cluster(1));
  core::CoschedManager mgr(cl, fast_cosched());
  kern::Kernel& k = cl.node(0).kernel();
  Spinner sp;
  kern::ThreadSpec ts;
  ts.name = "task";
  ts.base_priority = 60;
  ts.home_cpu = 0;
  kern::Thread& t = k.create_thread(ts, sp);
  cl.start();
  k.wake(t);
  mgr.register_task(0, t);
  e.run_until(Time::zero() + Duration::ms(1500));
  const auto windows_before = mgr.total_stats().windows;
  mgr.job_ended();
  e.run_until(Time::zero() + Duration::sec(5));
  EXPECT_EQ(mgr.total_stats().windows, windows_before)
      << "no more windows after shutdown";
}

TEST(CoSched, ConfigValidation) {
  SerialEngine serial(1);
  cluster::Cluster cl(serial.sharded, small_cluster(1));
  core::CoschedConfig bad = fast_cosched();
  bad.duty = 1.5;
  EXPECT_THROW(core::CoScheduler(cl.node(0).kernel(), bad), std::logic_error);
  bad = fast_cosched();
  bad.favored = 110;  // favored must be better (smaller) than unfavored
  bad.unfavored = 100;
  EXPECT_THROW(core::CoScheduler(cl.node(0).kernel(), bad), std::logic_error);
}

TEST(CoSched, PresetsMatchPaperSettings) {
  const auto cc = core::paper_cosched();
  EXPECT_EQ(cc.favored, 30);
  EXPECT_EQ(cc.unfavored, 100);
  EXPECT_EQ(cc.period.count(), Duration::sec(5).count());
  EXPECT_NEAR(cc.duty, 0.90, 1e-12);
  const auto io = core::io_aware_cosched(40);
  EXPECT_EQ(io.favored, 41);

  const auto proto = core::prototype_kernel();
  EXPECT_EQ(proto.big_tick, 25);
  EXPECT_TRUE(proto.synchronized_ticks);
  EXPECT_TRUE(proto.rt_scheduling);
  EXPECT_TRUE(proto.rt_reverse_preemption);
  EXPECT_TRUE(proto.rt_multi_ipi);
  EXPECT_TRUE(proto.daemon_global_queue);
  const auto vanilla = core::vanilla_kernel();
  EXPECT_EQ(vanilla.big_tick, 1);
  EXPECT_FALSE(vanilla.rt_scheduling);
}

TEST(CoSched, ExtremeDutyStarvesHeartbeat) {
  // §4's warning: give the tasks priority for too long and system daemons
  // starve ("the only way to recover control was to reboot the node").
  cluster::ClusterConfig cfg = cluster::presets::frost(1);
  cfg.node.install_daemons = true;
  cfg.node.daemons.heartbeat_deadline = Duration::sec(2);
  cfg.node.daemons.io_service = false;
  cfg.seed = 8;
  SerialEngine serial(cfg.nodes);
  Engine& e = serial.engine;
  cluster::Cluster cl(serial.sharded, cfg);
  core::CoschedConfig cc = core::paper_cosched();
  cc.period = Duration::sec(30);
  cc.duty = 0.999;  // essentially never yields
  core::CoschedManager mgr(cl, cc);
  // Fill every CPU with a registered spinner.
  std::vector<std::unique_ptr<Spinner>> spinners;
  cl.start();
  for (int c = 0; c < cl.node(0).kernel().ncpus(); ++c) {
    spinners.push_back(std::make_unique<Spinner>());
    kern::ThreadSpec ts;
    ts.name = "task" + std::to_string(c);
    ts.base_priority = 60;
    ts.home_cpu = c;
    ts.stealable = false;
    kern::Thread& t = cl.node(0).kernel().create_thread(ts, *spinners.back());
    cl.node(0).kernel().wake(t);
    mgr.register_task(0, t);
  }
  e.run_until(Time::zero() + Duration::sec(60));
  EXPECT_TRUE(cl.any_node_evicted())
      << "a 99.9% duty cycle must starve the membership heartbeat";
}
