// Golden-value tests for net::guaranteed_lookahead, the one lookahead the
// partitioned executor plans windows on and checks every cross-shard post
// against: its value on the default fabric, the jitter edge cases, the
// degenerate single-node map, and the executor running on exactly that value.
#include <gtest/gtest.h>

#include "apps/aggregate_trace.hpp"
#include "core/simulation.hpp"
#include "net/fabric.hpp"
#include "sim/shard.hpp"
#include "sim/shard_map.hpp"
#include "sim/time.hpp"

using namespace pasched;
using sim::Duration;

TEST(Lookahead, DefaultFabricGuaranteesTheJitteredWireLatency) {
  // 20us * (1 - 0.02) - 1ns of truncation slack.
  EXPECT_EQ(net::guaranteed_lookahead(net::FabricConfig{}).count(), 19599);
}

TEST(Lookahead, JitterEdgeCases) {
  net::FabricConfig f;
  f.jitter_frac = 0.0;  // only the truncation slack remains
  EXPECT_EQ(net::guaranteed_lookahead(f).count(), 19999);

  f.jitter_frac = 0.5;
  EXPECT_EQ(net::guaranteed_lookahead(f).count(), 9999);

  // Pathologically tiny latency: the bound clamps at 1ns, never 0 or
  // negative (a zero bound would let the conservative window collapse).
  f.inter_node_latency = Duration::ns(1);
  f.jitter_frac = 0.9;
  EXPECT_EQ(net::guaranteed_lookahead(f).count(), 1);
}

TEST(PairLookahead, SingleNodeHasNoPairs) {
  // One node is one shard: no cross-shard pair exists, so nothing is ever
  // posted across a shard boundary, yet the executor still carries the
  // fabric's lookahead unchanged.
  const sim::ShardMap map(1);
  EXPECT_EQ(map.shards(), 1);
  EXPECT_EQ(map.shard_of(0), 0);
  const Duration la = net::guaranteed_lookahead(net::FabricConfig{});
  sim::ShardedEngine se(map, la);
  EXPECT_EQ(se.partitions(), 1);
  EXPECT_EQ(se.shard_of_node(0), 0);
  EXPECT_EQ(se.lookahead().count(), 19599);
}

TEST(Lookahead, ExecutorRunsOnTheFabricLookahead) {
  // One construction rule: the lookahead core::Simulation gives the
  // partitioned executor is net::guaranteed_lookahead of its fabric.
  core::SimulationConfig cfg;
  cfg.cluster = cluster::presets::frost(4);
  cfg.cluster.fabric.inter_node_latency = Duration::us(30);
  cfg.job.ntasks = 4;
  cfg.job.tasks_per_node = 1;
  cfg.parallel = 1;
  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = 1;
  core::Simulation sim(cfg, apps::aggregate_trace(at));
  ASSERT_NE(sim.sharded(), nullptr);
  EXPECT_EQ(sim.sharded()->partitions(), 4);
  EXPECT_EQ(sim.sharded()->lookahead(),
            net::guaranteed_lookahead(cfg.cluster.fabric));
  EXPECT_EQ(sim.sharded()->lookahead().count(), 29399);
}
