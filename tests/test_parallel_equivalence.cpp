// Property test for partitioned execution: for many seeds, the serial
// one-shard run, --parallel=1, --parallel=4, and --parallel=8 must
// produce the same canonical (t, node, per-node seq) history digest —
// identical scheduling intervals, identical analyzer event streams,
// identical per-rank finish times — on a multi-node cluster with live
// daemons and a co-scheduler, under both vanilla/prototype parities of the
// seed sequence.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/aggregate_trace.hpp"
#include "core/equivalence.hpp"
#include "core/presets.hpp"
#include "core/simulation.hpp"
#include "race/fuzz.hpp"
#include "sim/shard_map.hpp"

using namespace pasched;

namespace {

core::SimulationConfig scenario(std::uint64_t seed, bool cosched) {
  core::SimulationConfig cfg;
  cfg.cluster = cluster::presets::frost(4);
  cfg.cluster.seed = seed;
  cfg.job.ntasks = 16;
  cfg.job.tasks_per_node = 4;
  cfg.job.seed = seed + 1;
  cfg.use_coscheduler = cosched;
  cfg.cosched = core::paper_cosched();
  if (cosched) cfg.cluster.node.tunables = core::prototype_kernel();
  return cfg;
}

mpi::WorkloadFactory workload() {
  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = 12;
  return apps::aggregate_trace(at);
}

core::CanonicalDigest digest(std::uint64_t seed, bool cosched, int parallel) {
  core::SimulationConfig cfg = scenario(seed, cosched);
  cfg.parallel = parallel;
  return core::run_canonical(cfg, workload());
}

}  // namespace

TEST(ParallelEquivalence, TenSeedsMatchAcrossAllExecutionModes) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const bool cosched = seed % 2 == 0;  // alternate vanilla / prototype
    const core::CanonicalDigest serial = digest(seed, cosched, 0);
    const core::CanonicalDigest par1 = digest(seed, cosched, 1);
    const core::CanonicalDigest par4 = digest(seed, cosched, 4);
    const core::CanonicalDigest par8 = digest(seed, cosched, 8);
    ASSERT_TRUE(serial.completed) << "seed " << seed;
    EXPECT_TRUE(par1.completed) << "seed " << seed;
    EXPECT_TRUE(par4.completed) << "seed " << seed;
    EXPECT_TRUE(par8.completed) << "seed " << seed;
    EXPECT_EQ(serial.elapsed.count(), par1.elapsed.count())
        << "seed " << seed;
    EXPECT_EQ(serial.hash, par1.hash) << "serial vs --parallel=1, seed "
                                      << seed;
    EXPECT_EQ(par1.hash, par4.hash) << "--parallel=1 vs --parallel=4, seed "
                                    << seed;
    EXPECT_EQ(par4.hash, par8.hash) << "--parallel=4 vs --parallel=8, seed "
                                    << seed;
  }
}

TEST(ParallelEquivalence, TenSeedsMatchLegacyWithOppositeCoschedParity) {
  // The same ten seeds with vanilla/prototype swapped relative to the test
  // above: the chained windows of --parallel=4 must replay the
  // serial one-shard history on those inputs too. This is the audit
  // gate's core claim in test form: window boundaries are invisible to the
  // simulated workload.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const bool cosched = seed % 2 == 1;
    const core::CanonicalDigest serial = digest(seed, cosched, 0);
    const core::CanonicalDigest par4 = digest(seed, cosched, 4);
    ASSERT_TRUE(serial.completed) << "seed " << seed;
    EXPECT_TRUE(par4.completed) << "seed " << seed;
    EXPECT_EQ(serial.hash, par4.hash)
        << "serial vs --parallel=4, seed " << seed;
    EXPECT_EQ(serial.elapsed.count(), par4.elapsed.count())
        << "seed " << seed;
  }
}

TEST(ParallelEquivalence, ThirtyTwoNodesInBlocksMatchUnderTheRaceMonitor) {
  // Above sim::kShardBlocks nodes, every shard holds a block of four nodes:
  // intra-block posts become local schedule_at calls and the per-node trace
  // buffers are owned by the block's shard. The serial run, --parallel=1
  // and --parallel=3 must still agree bit for bit, with the tracer and the
  // event log attached, and the race monitor must see no ownership breach.
  for (const bool cosched : {false, true}) {
    core::SimulationConfig cfg = scenario(5, cosched);
    cfg.cluster.nodes = 32;
    cfg.job.ntasks = 64;
    cfg.job.tasks_per_node = 2;
    {
      core::SimulationConfig blocks = cfg;
      blocks.parallel = 1;
      core::Simulation sim(blocks, workload());
      ASSERT_EQ(sim.sharded()->partitions(), sim::kShardBlocks);
    }
    cfg.parallel = 0;
    const core::CanonicalDigest serial = core::run_canonical(cfg, workload());
    ASSERT_TRUE(serial.completed) << "cosched " << cosched;
    for (const int workers : {1, 3}) {
      race::AuditOptions opt;
      opt.workers = workers;
      cfg.parallel = workers;
      const race::AuditRun run = race::run_audited(cfg, workload(), opt);
      EXPECT_TRUE(run.digest.completed) << "workers " << workers;
      EXPECT_EQ(run.digest.hash, serial.hash)
          << "serial vs --parallel=" << workers << ", cosched " << cosched;
      EXPECT_EQ(run.digest.elapsed.count(), serial.elapsed.count());
      for (const analysis::Diagnostic& d : run.findings)
        EXPECT_NE(d.rule, "PSL201") << d.str();
    }
  }
}

TEST(ParallelEquivalence, ParallelModeIsInternallyDeterministic) {
  // Same seed, same worker count, run twice: bit-identical.
  const core::CanonicalDigest a = digest(77, true, 4);
  const core::CanonicalDigest b = digest(77, true, 4);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.elapsed.count(), b.elapsed.count());
}

TEST(ParallelEquivalence, LinkBandwidthContentionIsRejected) {
  core::SimulationConfig cfg = scenario(3, false);
  cfg.cluster.fabric.link_bandwidth = 500e6;
  cfg.parallel = 2;
  EXPECT_THROW({ core::Simulation sim(cfg, workload()); }, std::logic_error);
}

