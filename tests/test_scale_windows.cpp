// Window accounting and the barrier-cost model, plus the runtime half of
// the lookahead certificate on real partitioned runs: clean certification,
// the planted-unsound-bound PSL303 regression, the mode-invariant
// events_at_completion counter, and the end-to-end analyze_scenario driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/diagnostic.hpp"
#include "apps/aggregate_trace.hpp"
#include "core/presets.hpp"
#include "core/simulation.hpp"
#include "scale/lookahead.hpp"
#include "scale/monitor.hpp"
#include "scale/runner.hpp"
#include "scale/windows.hpp"
#include "sim/time.hpp"

using namespace pasched;
using sim::Duration;
using sim::Time;

namespace {

scale::WindowSample sample(std::uint64_t total, std::uint64_t max_shard,
                           std::uint64_t hub) {
  scale::WindowSample s;
  s.total = total;
  s.max_shard = max_shard;
  s.hub = hub;
  return s;
}

core::SimulationConfig scenario(int parallel) {
  core::SimulationConfig cfg;
  cfg.cluster = cluster::presets::frost(4);
  cfg.cluster.seed = 11;
  cfg.job.ntasks = 16;
  cfg.job.tasks_per_node = 4;
  cfg.job.seed = 12;
  cfg.parallel = parallel;
  return cfg;
}

mpi::WorkloadFactory workload() {
  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = 12;
  return apps::aggregate_trace(at);
}

}  // namespace

TEST(ScaleWindows, StatsArithmetic) {
  scale::WindowStats w;
  w.shards = 3;
  w.hub_shard = 2;
  w.windows = {sample(10, 6, 2), sample(2, 2, 2), sample(30, 10, 0)};
  w.per_shard = {20, 18, 4};
  EXPECT_EQ(w.n_windows(), 3u);
  EXPECT_EQ(w.total_events(), 42u);
  EXPECT_DOUBLE_EQ(w.mean_events_per_window(), 14.0);
  EXPECT_DOUBLE_EQ(w.median_events_per_window(), 10.0);
  EXPECT_DOUBLE_EQ(w.imbalance(), 20.0 / 14.0);
  EXPECT_DOUBLE_EQ(w.hub_critical_share(), 4.0 / 18.0);
}

TEST(ScaleWindows, StatsDegenerateCases) {
  scale::WindowStats w;
  EXPECT_EQ(w.total_events(), 0u);
  EXPECT_DOUBLE_EQ(w.mean_events_per_window(), 0.0);
  EXPECT_DOUBLE_EQ(w.imbalance(), 1.0);
  EXPECT_DOUBLE_EQ(w.hub_critical_share(), 0.0);
}

TEST(ScaleWindows, SpeedupModelArithmetic) {
  scale::WindowStats w;
  w.shards = 2;
  w.windows = {sample(4, 2, 0), sample(4, 2, 0)};
  scale::SpeedupModel m;
  m.event_cost_ns = 1.0;
  m.barrier_cost_ns = 0.0;
  // T_1 = 8; per window max(max_shard=2, ceil(4/2)=2) = 2 -> T_p = 4.
  EXPECT_DOUBLE_EQ(m.predicted_speedup(w, 2), 2.0);
  // Barriers added: T_p = 4 + 2*2 = 8 -> speedup 1.
  m.barrier_cost_ns = 2.0;
  EXPECT_DOUBLE_EQ(m.predicted_speedup(w, 2), 1.0);
  // A straggler shard caps the window even with infinite workers.
  w.windows = {sample(4, 4, 0)};
  m.barrier_cost_ns = 0.0;
  EXPECT_DOUBLE_EQ(m.predicted_speedup(w, 64), 1.0);
  EXPECT_DOUBLE_EQ(m.predicted_speedup({}, 8), 1.0);
}

TEST(ScaleWindows, CleanRunCertifiesTheHonestMatrix) {
  const core::SimulationConfig cfg = scenario(/*parallel=*/1);
  core::Simulation sim(cfg, workload());
  ASSERT_NE(sim.sharded(), nullptr);
  scale::RunMonitor mon(
      scale::build_lookahead_matrix(cfg.cluster.fabric,
                                    sim::ShardMap(cfg.cluster.nodes)),
      *sim.sharded());
  sim.sharded()->set_monitor(&mon);
  const auto res = sim.run();
  mon.finalize();

  EXPECT_TRUE(res.completed);
  EXPECT_GT(mon.windows().n_windows(), 0u);
  EXPECT_GT(mon.posts_checked(), 0u);
  EXPECT_EQ(mon.violations(), 0u);
  EXPECT_TRUE(mon.soundness_findings().empty());
  // Every delivery left nonnegative slack against the certificate.
  EXPECT_GE(mon.min_observed_slack(), Duration::zero());
  // The profiled windows account for the run's events.
  EXPECT_EQ(mon.windows().total_events(), res.events);
}

TEST(ScaleWindows, PlantedUnsoundBoundIsCaught) {
  const core::SimulationConfig cfg = scenario(/*parallel=*/1);
  scale::LookaheadMatrix planted =
      scale::build_lookahead_matrix(cfg.cluster.fabric,
                                    sim::ShardMap(cfg.cluster.nodes));
  for (int a = 0; a < planted.shards; ++a)
    for (int b = 0; b < planted.shards; ++b)
      if (a != b) planted.set(a, b, planted.at(a, b) * 4);

  core::Simulation sim(cfg, workload());
  ASSERT_NE(sim.sharded(), nullptr);
  scale::RunMonitor mon(planted, *sim.sharded());
  sim.sharded()->set_monitor(&mon);
  (void)sim.run();
  mon.finalize();

  EXPECT_GT(mon.violations(), 0u);
  const auto findings = mon.soundness_findings();
  ASSERT_FALSE(findings.empty());
  for (const auto& d : findings) EXPECT_EQ(d.rule, "PSL303");
  EXPECT_TRUE(analysis::any_errors(findings));
  EXPECT_LT(mon.min_observed_slack(), Duration::zero());
}

TEST(ScaleWindows, EventsAtCompletionIsModeInvariant) {
  // The raw counter differs across modes (partitioned runs drain their
  // final window past the completing event); the normalized below-T_c
  // counter must not.
  const auto serial = core::Simulation(scenario(0), workload()).run();
  const auto par1 = core::Simulation(scenario(1), workload()).run();
  const auto par2 = core::Simulation(scenario(2), workload()).run();
  ASSERT_TRUE(serial.completed);
  ASSERT_TRUE(par1.completed);
  ASSERT_TRUE(par2.completed);
  EXPECT_EQ(serial.events_at_completion, par1.events_at_completion);
  EXPECT_EQ(par1.events_at_completion, par2.events_at_completion);
  EXPECT_LE(serial.events_at_completion, serial.events);
  EXPECT_LE(par1.events_at_completion, par1.events);
}

TEST(ScaleWindows, AnalyzeScenarioEndToEnd) {
  const auto rep =
      scale::analyze_scenario(scenario(/*parallel=*/1), workload(), "unit");
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.soundness_violations, 0u);
  EXPECT_GT(rep.posts_checked, 0u);
  EXPECT_GT(rep.windows.n_windows(), 0u);
  EXPECT_GT(rep.workspan.work, Duration::zero());
  EXPECT_GT(rep.workspan.span, Duration::zero());
  EXPECT_GE(rep.workspan.work, rep.workspan.span);
  EXPECT_GT(rep.predicted_speedup_window_model, 0.0);
  // No PSL303 on a clean run; the machine report carries the certificate.
  for (const auto& d : rep.diagnostics()) EXPECT_NE(d.rule, "PSL303");
  const std::string js = rep.json();
  EXPECT_NE(js.find("\"predicted_max_speedup\""), std::string::npos);
  EXPECT_NE(js.find("\"certificate\""), std::string::npos);
  EXPECT_NE(rep.str().find("work/span"), std::string::npos);
}
