// Golden-value tests for net::pair_lookahead, the per-shard-pair lookahead
// matrix the partitioned executor plans windows on: the pairwise bounds on
// flat and frame-structured fabrics, the jitter edge cases, the degenerate
// single-node matrix, the hub rows' global floor, the executor installing
// that same matrix, and the PSL014 lint precursor.
#include <gtest/gtest.h>

#include "analysis/lint.hpp"
#include "apps/aggregate_trace.hpp"
#include "core/simulation.hpp"
#include "net/fabric.hpp"
#include "sim/planner.hpp"
#include "sim/shard_map.hpp"
#include "sim/time.hpp"

using namespace pasched;
using sim::Duration;

namespace {

net::FabricConfig flat_fabric() {
  net::FabricConfig f;  // defaults: 20us inter-node, 2% jitter
  return f;
}

net::FabricConfig framed_fabric(int frame_size, Duration extra) {
  net::FabricConfig f;
  f.frame_size = frame_size;
  f.inter_frame_extra = extra;
  return f;
}

// The matrix the executor installs for `nodes` nodes: the default shard map.
sim::PairLookahead matrix(const net::FabricConfig& f, int nodes) {
  return net::pair_lookahead(f, sim::ShardMap(nodes));
}

}  // namespace

TEST(PairLookahead, FlatFabricAllPairsEqualGlobal) {
  // 20us * (1 - 0.02) - 1ns of truncation slack.
  const auto m = matrix(flat_fabric(), 4);
  EXPECT_EQ(m.shards, 5);
  EXPECT_EQ(sim::ShardMap(4).hub(), 4);
  EXPECT_EQ(m.global.count(), 19599);
  for (int a = 0; a < m.shards; ++a)
    for (int b = 0; b < m.shards; ++b)
      EXPECT_EQ(m.at(a, b).count(), a == b ? 0 : 19599)
          << "pair (" << a << "," << b << ")";
}

TEST(PairLookahead, FrameTopologyWidensCrossFramePairs) {
  // Frames {0,1} and {2,3}: intra-frame stays 19599ns, cross-frame pays the
  // 10us hop: 30us * 0.98 - 1ns = 29399ns. The global bound must stay the
  // intra-frame minimum — the frame hop can only add latency.
  const auto cfg = framed_fabric(2, Duration::us(10));
  EXPECT_EQ(net::guaranteed_lookahead(cfg).count(), 19599);
  const auto m = matrix(cfg, 4);
  EXPECT_EQ(m.global.count(), 19599);
  EXPECT_EQ(m.at(0, 1).count(), 19599);
  EXPECT_EQ(m.at(2, 3).count(), 19599);
  EXPECT_EQ(m.at(0, 2).count(), 29399);
  EXPECT_EQ(m.at(1, 3).count(), 29399);
  EXPECT_EQ(m.at(3, 0).count(), 29399);
  // Hub rows/columns stay at the global floor regardless of frames.
  const int hub = sim::ShardMap(4).hub();
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(m.at(s, hub).count(), 19599);
    EXPECT_EQ(m.at(hub, s).count(), 19599);
  }
}

TEST(PairLookahead, JitterEdgeCases) {
  net::FabricConfig f;
  f.jitter_frac = 0.0;  // only the truncation slack remains
  EXPECT_EQ(matrix(f, 2).at(0, 1).count(), 19999);

  f.jitter_frac = 0.5;
  EXPECT_EQ(matrix(f, 2).at(0, 1).count(), 9999);

  // Pathologically tiny latency: the bound clamps at 1ns, never 0 or
  // negative (a zero bound would let the conservative window collapse).
  f.inter_node_latency = Duration::ns(1);
  f.jitter_frac = 0.9;
  EXPECT_EQ(matrix(f, 2).at(0, 1).count(), 1);
}

TEST(PairLookahead, SingleNodeHasNoPairs) {
  const auto m = matrix(flat_fabric(), 1);
  EXPECT_EQ(m.shards, 1);
  EXPECT_EQ(sim::ShardMap(1).hub(), 0);
  EXPECT_EQ(m.at(0, 0).count(), 0);
}

TEST(PairLookahead, ExecutorInstallsTheMatrix) {
  // One construction rule: the pair bounds core::Simulation installs in the
  // partitioned executor are net::pair_lookahead's, pair for pair.
  core::SimulationConfig cfg;
  cfg.cluster = cluster::presets::frost(4);
  cfg.cluster.fabric.frame_size = 2;
  cfg.cluster.fabric.inter_frame_extra = Duration::us(10);
  cfg.job.ntasks = 4;
  cfg.job.tasks_per_node = 1;
  cfg.parallel = 1;
  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = 1;
  core::Simulation sim(cfg, apps::aggregate_trace(at));
  const auto m = matrix(cfg.cluster.fabric, 4);
  ASSERT_NE(sim.sharded(), nullptr);
  ASSERT_EQ(sim.sharded()->partitions(), m.shards);
  EXPECT_GT(m.at(0, 2), m.global);  // the frames make the matrix non-uniform
  for (int a = 0; a < m.shards; ++a)
    for (int b = 0; b < m.shards; ++b)
      EXPECT_EQ(sim.sharded()->pair_lookahead(a, b), m.at(a, b))
          << "pair (" << a << "," << b << ")";
}

TEST(PairLookahead, Psl014FiresOnCollapsedGlobalLookahead) {
  // Cross-frame pairs dominate (median 50us * 0.98 - 1 = 48999ns) while two
  // intra-frame links pin the global bound at 19599ns — a >= 2x collapse.
  analysis::LintConfig lc;
  lc.fabric = framed_fabric(2, Duration::us(30));
  lc.nodes = 4;
  const auto diags = analysis::lint(lc);
  bool found = false;
  for (const auto& d : diags)
    if (d.rule == "PSL014") found = true;
  EXPECT_TRUE(found);
}

TEST(PairLookahead, Psl014SilentOnFlatFabric) {
  analysis::LintConfig lc;
  lc.fabric = flat_fabric();
  lc.nodes = 4;
  for (const auto& d : analysis::lint(lc)) EXPECT_NE(d.rule, "PSL014");
}
