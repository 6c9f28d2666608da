// The implemented §7 future-work extensions: hardware-assisted collectives
// and the MP_PRIORITY / poe.priority admission flow.
#include <gtest/gtest.h>

#include "apps/aggregate_trace.hpp"
#include "apps/channels.hpp"
#include "core/presets.hpp"
#include "core/simulation.hpp"
#include "mpi/collectives.hpp"

using namespace pasched;
using sim::Duration;

namespace {

core::SimulationConfig base_cfg(std::uint64_t seed = 9) {
  core::SimulationConfig cfg;
  cfg.cluster = cluster::presets::frost(2);
  cfg.cluster.seed = seed;
  cfg.cluster.node.install_daemons = false;  // sterile timing
  cfg.job.ntasks = 32;
  cfg.job.tasks_per_node = 16;
  cfg.job.mpi.progress_engine = false;
  cfg.job.seed = seed + 1;
  return cfg;
}

apps::AggregateTraceConfig app_cfg(mpi::AllreduceAlg alg, int calls = 40) {
  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = calls;
  at.alg = alg;
  return at;
}

}  // namespace

TEST(HwCollectives, CompletesAndBeatsSoftwareTree) {
  core::SimulationConfig cfg = base_cfg();
  core::Simulation sw(cfg, apps::aggregate_trace(
                               app_cfg(mpi::AllreduceAlg::BinomialTree)));
  ASSERT_TRUE(sw.run().completed);
  core::SimulationConfig cfg2 = base_cfg();
  cfg2.job.mpi.allreduce_alg = mpi::AllreduceAlg::HardwareSwitch;
  core::Simulation hw(cfg2, apps::aggregate_trace(
                                app_cfg(mpi::AllreduceAlg::HardwareSwitch)));
  ASSERT_TRUE(hw.run().completed);
  const double sw_mean = sw.job().channel(apps::kChanAllreduce).all_us.mean();
  const double hw_mean = hw.job().channel(apps::kChanAllreduce).all_us.mean();
  EXPECT_LT(hw_mean, sw_mean / 2.0)
      << "switch offload must beat the 2*log2(N)-step software tree";
  // Still bounded below by one injection + 2 wire hops + combine.
  EXPECT_GT(hw_mean, 20.0);
}

TEST(HwCollectives, EveryCallCompletesExactlyOnce) {
  core::SimulationConfig cfg = base_cfg(21);
  cfg.job.mpi.allreduce_alg = mpi::AllreduceAlg::HardwareSwitch;
  core::Simulation sim(
      cfg, apps::aggregate_trace(app_cfg(mpi::AllreduceAlg::HardwareSwitch, 60)));
  ASSERT_TRUE(sim.run().completed);
  const auto& ch = sim.job().channel(apps::kChanAllreduce);
  EXPECT_EQ(ch.recorded_us.size(), 60u);
  EXPECT_EQ(ch.all_us.count(), 60u * 32u);  // every task, every call
}

TEST(HwCollectives, ParallelCoreMatchesTheSerialRun) {
  // Nine nodes: the default shard map puts nodes 0 and 1 in block 0, which
  // also hosts the combine unit, so contributions reach it both as local
  // deliveries and across shards. Serial, --parallel=1 and --parallel=3
  // must agree on the completion time, the event count before it, and
  // every allreduce span.
  struct Outcome {
    std::int64_t elapsed_ns;
    std::uint64_t events;
    std::size_t spans;
    double mean_us, min_us, max_us, sum_us;
    std::vector<double> recorded_us;
  };
  const auto run = [](int parallel) {
    core::SimulationConfig cfg = base_cfg(41);
    cfg.cluster = cluster::presets::frost(9);
    cfg.cluster.seed = 41;
    cfg.cluster.node.install_daemons = false;
    cfg.job.ntasks = 36;
    cfg.job.tasks_per_node = 4;
    cfg.job.mpi.allreduce_alg = mpi::AllreduceAlg::HardwareSwitch;
    cfg.parallel = parallel;
    core::Simulation sim(
        cfg,
        apps::aggregate_trace(app_cfg(mpi::AllreduceAlg::HardwareSwitch, 30)));
    if (parallel > 0) {
      EXPECT_EQ(sim.sharded()->shard_of_node(0), 0);
      EXPECT_EQ(sim.sharded()->shard_of_node(1), 0);
    }
    const core::SimulationResult r = sim.run();
    EXPECT_TRUE(r.completed) << "parallel=" << parallel;
    const auto& ch = sim.job().channel(apps::kChanAllreduce);
    return Outcome{r.elapsed.count(),  r.events_at_completion,
                   ch.all_us.count(),  ch.all_us.mean(),
                   ch.all_us.min(),    ch.all_us.max(),
                   ch.all_us.sum(),    ch.recorded_us};
  };
  const Outcome serial = run(0);
  EXPECT_EQ(serial.spans, 30U * 36U);
  for (const int parallel : {1, 3}) {
    const Outcome par = run(parallel);
    EXPECT_EQ(par.elapsed_ns, serial.elapsed_ns) << "parallel=" << parallel;
    EXPECT_EQ(par.events, serial.events) << "parallel=" << parallel;
    EXPECT_EQ(par.spans, serial.spans) << "parallel=" << parallel;
    EXPECT_EQ(par.mean_us, serial.mean_us) << "parallel=" << parallel;
    EXPECT_EQ(par.min_us, serial.min_us) << "parallel=" << parallel;
    EXPECT_EQ(par.max_us, serial.max_us) << "parallel=" << parallel;
    EXPECT_EQ(par.sum_us, serial.sum_us) << "parallel=" << parallel;
    EXPECT_EQ(par.recorded_us, serial.recorded_us) << "parallel=" << parallel;
  }
}

TEST(HwCollectives, GatedByTheSlowestContributor) {
  // One laggard rank computes 2 ms extra before each collective: the
  // hardware combine cannot fire early, so everyone's span stretches.
  core::SimulationConfig cfg = base_cfg(31);
  cfg.job.mpi.allreduce_alg = mpi::AllreduceAlg::HardwareSwitch;
  struct Laggard final : mpi::Workload {
    bool refill(const mpi::TaskInfo& info,
                std::vector<mpi::MicroOp>& out) override {
      if (done) return false;
      done = true;
      out.push_back(mpi::MicroOp::barrier(0));
      if (info.rank == 5) out.push_back(mpi::MicroOp::compute(Duration::ms(2)));
      out.push_back(mpi::MicroOp::mark_begin(0, 0));
      out.push_back(mpi::MicroOp::allreduce(8, mpi::kTagStride,
                                            mpi::AllreduceAlg::HardwareSwitch));
      out.push_back(mpi::MicroOp::mark_end(0, 0));
      return true;
    }
    bool done = false;
  };
  core::Simulation sim(cfg, [](int, int) { return std::make_unique<Laggard>(); });
  ASSERT_TRUE(sim.run().completed);
  // Non-laggard tasks' spans include the 2 ms wait for rank 5.
  EXPECT_GT(sim.job().channel(0).all_us.max(), 2000.0);
}

TEST(AdminFlow, MatchingClassEngagesCoscheduling) {
  core::SimulationConfig cfg = base_cfg(41);
  cfg.cluster.node.tunables = core::prototype_kernel();
  cfg.mp_priority = "hpc";
  cfg.uid = 1001;
  cfg.admin = core::AdminFile::parse("hpc:1001:35:105:2:80\n");
  apps::AggregateTraceConfig at = app_cfg(mpi::AllreduceAlg::BinomialTree, 30);
  at.warmup = Duration::sec(3);
  core::Simulation sim(cfg, apps::aggregate_trace(at));
  ASSERT_TRUE(sim.admission().has_value());
  EXPECT_EQ(sim.admission()->favored, 35);
  ASSERT_NE(sim.cosched(), nullptr);
  EXPECT_EQ(sim.cosched()->config().favored, 35);
  EXPECT_EQ(sim.cosched()->config().unfavored, 105);
  EXPECT_EQ(sim.cosched()->config().period.count(),
            Duration::sec(2).count());
  EXPECT_NEAR(sim.cosched()->config().duty, 0.80, 1e-12);
  ASSERT_TRUE(sim.run().completed);
  EXPECT_GT(sim.cosched()->total_stats().windows, 0u);
}

TEST(AdminFlow, MismatchRunsUnscheduledWithAttention) {
  core::SimulationConfig cfg = base_cfg(43);
  cfg.mp_priority = "hpc";
  cfg.uid = 9999;  // not in the file
  cfg.admin = core::AdminFile::parse("hpc:1001:35:105:2:80\n");
  cfg.use_coscheduler = true;  // the request is overridden by non-admission
  core::Simulation sim(cfg,
                       apps::aggregate_trace(
                           app_cfg(mpi::AllreduceAlg::BinomialTree, 10)));
  EXPECT_FALSE(sim.admission().has_value());
  EXPECT_EQ(sim.cosched(), nullptr);
  EXPECT_TRUE(sim.run().completed);
}

TEST(AdminFlow, MpPriorityWithoutAdminFileIsAnError) {
  core::SimulationConfig cfg = base_cfg(47);
  cfg.mp_priority = "hpc";
  EXPECT_THROW(core::Simulation(cfg, apps::aggregate_trace(app_cfg(
                                         mpi::AllreduceAlg::BinomialTree, 1))),
               std::logic_error);
}
