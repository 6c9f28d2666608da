// The Simulation facade: end-to-end construction, determinism, horizon
// behavior, the co-scheduler wiring, and the planner's sync-round gates.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/aggregate_trace.hpp"
#include "apps/channels.hpp"
#include "core/presets.hpp"
#include "core/simulation.hpp"
#include "fig_scenario.hpp"

using namespace pasched;
using sim::Duration;

namespace {

core::SimulationConfig tiny(bool cosched, std::uint64_t seed = 5) {
  core::SimulationConfig cfg;
  cfg.cluster = cluster::presets::frost(2);
  cfg.cluster.seed = seed;
  cfg.job.ntasks = 32;
  cfg.job.tasks_per_node = 16;
  cfg.job.seed = seed + 1;
  cfg.use_coscheduler = cosched;
  cfg.cosched = core::paper_cosched();
  if (cosched) cfg.cluster.node.tunables = core::prototype_kernel();
  return cfg;
}

apps::AggregateTraceConfig tiny_app(int calls = 50) {
  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = calls;
  return at;
}

core::SimulationConfig four_nodes(int parallel) {
  core::SimulationConfig cfg;
  cfg.cluster = cluster::presets::frost(4);
  cfg.cluster.seed = 11;
  cfg.job.ntasks = 16;
  cfg.job.tasks_per_node = 4;
  cfg.job.seed = 12;
  cfg.parallel = parallel;
  return cfg;
}

/// Sync rounds the planner pays for the fig3/fig5 scenario at 3 workers.
std::uint64_t sync_rounds(bool fig5, int calls) {
  testutil::FigScenario s = testutil::fig_scenario(fig5, calls);
  s.cfg.parallel = 3;
  core::Simulation sim(s.cfg, s.factory);
  EXPECT_TRUE(sim.run().completed);
  return sim.sharded()->planner_stats().rounds;
}

}  // namespace

TEST(Simulation, RunsToCompletion) {
  core::Simulation sim(tiny(false), apps::aggregate_trace(tiny_app()));
  const auto r = sim.run();
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.elapsed.count(), 0);
  EXPECT_GT(r.events, 1000u);
  EXPECT_FALSE(r.any_node_evicted);
  EXPECT_EQ(sim.job().channel(apps::kChanAllreduce).recorded_us.size(), 50u);
  EXPECT_EQ(sim.cosched(), nullptr);
}

TEST(Simulation, SerialRunIsTheOneShardExecutor) {
  core::Simulation sim(tiny(false), apps::aggregate_trace(tiny_app()));
  EXPECT_EQ(sim.cluster().sharded().partitions(), 1);
  EXPECT_EQ(sim.sharded(), nullptr);
  const auto r = sim.run();
  ASSERT_TRUE(r.completed);
  // Recorded from the classic single-queue engine the one-shard executor
  // replaced: same completion time, and it too stops at the completing
  // event, so only that event lies at or past T_c.
  EXPECT_EQ(r.elapsed.count(), 13'708'299);
  EXPECT_EQ(r.events, 11'424U);
  EXPECT_EQ(r.events_at_completion, 11'423U);
}

TEST(Simulation, LinkContentionRunsSeriallyAndIsRejectedWhenParallel) {
  core::SimulationConfig cfg = tiny(false);
  cfg.cluster.fabric.link_bandwidth = 1e6;  // 1 MB/s: 8 B cost 8 us a link
  {
    core::Simulation sim(cfg, apps::aggregate_trace(tiny_app()));
    const auto r = sim.run();
    ASSERT_TRUE(r.completed);
    // Recorded from the classic engine; 9.2 us later than without
    // contention.
    EXPECT_EQ(r.elapsed.count(), 13'717'510);
    EXPECT_EQ(r.events_at_completion, 11'423U);
  }
  cfg.parallel = 1;
  EXPECT_THROW(core::Simulation(cfg, apps::aggregate_trace(tiny_app())),
               std::logic_error);
}

TEST(Simulation, CoschedulerWiredWhenRequested) {
  core::SimulationConfig cfg = tiny(true);
  cfg.job.ntasks = 32;
  apps::AggregateTraceConfig at = tiny_app(50);
  at.warmup = Duration::sec(6);
  core::Simulation sim(cfg, apps::aggregate_trace(at));
  const auto r = sim.run();
  EXPECT_TRUE(r.completed);
  ASSERT_NE(sim.cosched(), nullptr);
  EXPECT_EQ(sim.cosched()->total_stats().registered, 32u);
  EXPECT_GT(sim.cosched()->total_stats().windows, 0u);
}

TEST(Simulation, SameSeedIsBitIdentical) {
  auto run = [](std::uint64_t seed) {
    core::Simulation sim(tiny(false, seed), apps::aggregate_trace(tiny_app()));
    sim.run();
    return sim.job().channel(apps::kChanAllreduce).recorded_us;
  };
  const auto a = run(42);
  const auto b = run(42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Simulation, DifferentSeedsDiffer) {
  auto run = [](std::uint64_t seed) {
    core::Simulation sim(tiny(false, seed), apps::aggregate_trace(tiny_app()));
    sim.run();
    return sim.job().channel(apps::kChanAllreduce).recorded_us;
  };
  const auto a = run(1);
  const auto b = run(2);
  ASSERT_EQ(a.size(), b.size());
  bool differ = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) differ = true;
  EXPECT_TRUE(differ);
}

TEST(Simulation, HorizonCapsRunawayJobs) {
  core::SimulationConfig cfg = tiny(false);
  cfg.horizon = Duration::ms(50);  // far too short to finish warmup
  apps::AggregateTraceConfig at = tiny_app(100000);
  at.warmup = Duration::sec(30);
  core::Simulation sim(cfg, apps::aggregate_trace(at));
  const auto r = sim.run();
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.elapsed.count(), Duration::ms(50).count());
}

TEST(Simulation, RunTwiceIsRejected) {
  core::Simulation sim(tiny(false), apps::aggregate_trace(tiny_app(5)));
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), std::logic_error);
}

TEST(Simulation, EventsAtCompletionIsModeInvariant) {
  // The raw counter differs across modes (partitioned runs drain their
  // final window past the completing event); the normalized below-T_c
  // counter must not.
  const auto run = [](int parallel) {
    return core::Simulation(four_nodes(parallel),
                            apps::aggregate_trace(tiny_app(12)))
        .run();
  };
  const auto serial = run(0);
  const auto par1 = run(1);
  const auto par2 = run(2);
  ASSERT_TRUE(serial.completed);
  ASSERT_TRUE(par1.completed);
  ASSERT_TRUE(par2.completed);
  EXPECT_EQ(serial.events_at_completion, par1.events_at_completion);
  EXPECT_EQ(par1.events_at_completion, par2.events_at_completion);
  EXPECT_LE(serial.events_at_completion, serial.events);
  EXPECT_LE(par1.events_at_completion, par1.events);
}

// The sync-round gates hold the planner's round count to a fixed cut below
// the recorded count of an older planner on the same scenario. Round counts
// are schedule-derived, so they are identical on any machine and at any
// worker count, and the cut is a hard gate rather than a timing heuristic.

TEST(SyncRounds, Fig5CutsTheGlobalPlannerRounds6x) {
  // 2011 rounds: the retired global (one-window-per-round) planner,
  // recorded at commit 5abd368. A tree that drops the earliest-output bound
  // (sim::ShardedEngine::OutputBound) plans 429 rounds here, one that stops
  // chaining windows (sim::kWindowBatch = 1) 1529; both fail this gate.
  const std::uint64_t rounds = sync_rounds(/*fig5=*/true, 120);
  EXPECT_GT(rounds, 0u);
  EXPECT_LE(rounds * 6, 2011u) << rounds << " rounds";
}

TEST(SyncRounds, Fig3CutsTheNextEventPlannerRounds10x) {
  // 28862 rounds: the planner that planned windows on next event times
  // instead of on when a shard can next post, recorded at commit bcc6d9b.
  // A tree that drops the earliest-output bound
  // (sim::ShardedEngine::OutputBound) fails this gate.
  const std::uint64_t rounds = sync_rounds(/*fig5=*/false, 24);
  EXPECT_GT(rounds, 0u);
  EXPECT_LE(rounds * 10, 28862u) << rounds << " rounds";
}
