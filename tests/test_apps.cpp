// Workload generators: program structure of aggregate_trace, the ALE3D
// proxy, and the generic BSP app.
#include <gtest/gtest.h>

#include <vector>

#include "apps/aggregate_trace.hpp"
#include "apps/ale3d_proxy.hpp"
#include "apps/bsp.hpp"
#include "apps/channels.hpp"
#include "mpi/collectives.hpp"
#include "mpi/microop.hpp"

using namespace pasched;
using mpi::MicroOp;

namespace {

/// Drains a workload completely, returning the flattened op stream with
/// every Collective op replaced by the steps a task streams from it.
std::vector<MicroOp> drain(mpi::Workload& w, int rank, int size,
                           std::uint64_t seed = 1) {
  sim::Rng rng(seed);
  mpi::TaskInfo info{rank, size, &rng};
  std::vector<MicroOp> all, chunk;
  while (true) {
    chunk.clear();
    if (!w.refill(info, chunk)) break;
    EXPECT_FALSE(chunk.empty());
    for (const auto& op : chunk) {
      if (op.kind != MicroOp::Kind::Collective) {
        all.push_back(op);
        continue;
      }
      MicroOp step;
      for (std::uint32_t i = 0; mpi::collective_step(op, rank, size, i, step);
           ++i)
        all.push_back(step);
    }
    EXPECT_LT(all.size(), 5'000'000u) << "workload failed to terminate";
    if (all.size() >= 5'000'000u) break;
  }
  return all;
}

int count_kind(const std::vector<MicroOp>& ops, MicroOp::Kind k) {
  int n = 0;
  for (const auto& op : ops)
    if (op.kind == k) ++n;
  return n;
}

int count_marks(const std::vector<MicroOp>& ops, std::uint32_t channel,
                bool begin) {
  int n = 0;
  for (const auto& op : ops) {
    if (op.kind == (begin ? MicroOp::Kind::MarkBegin : MicroOp::Kind::MarkEnd) &&
        op.channel == channel)
      ++n;
  }
  return n;
}

}  // namespace

TEST(AggregateTrace, EmitsOneSpanPerCall) {
  apps::AggregateTraceConfig cfg;
  cfg.loops = 2;
  cfg.calls_per_loop = 100;
  auto w = apps::aggregate_trace(cfg)(0, 8);
  const auto ops = drain(*w, 0, 8);
  EXPECT_EQ(count_marks(ops, apps::kChanAllreduce, true), 200);
  EXPECT_EQ(count_marks(ops, apps::kChanAllreduce, false), 200);
  // Trace-block markers every 64 calls: ceil(200/64) = 4 blocks.
  EXPECT_EQ(count_marks(ops, apps::kChanStep, true), 4);
  EXPECT_EQ(count_marks(ops, apps::kChanStep, false), 4);
  // Each call includes sends/recvs of the collective plus inter-call compute.
  EXPECT_GT(count_kind(ops, MicroOp::Kind::Send), 200);
  EXPECT_GT(count_kind(ops, MicroOp::Kind::Compute), 199);
}

TEST(AggregateTrace, MarksAreBalancedAndOrdered) {
  apps::AggregateTraceConfig cfg;
  cfg.loops = 1;
  cfg.calls_per_loop = 130;
  cfg.trace_block = 64;
  auto w = apps::aggregate_trace(cfg)(3, 16);
  const auto ops = drain(*w, 3, 16);
  int depth0 = 0, depth1 = 0;
  for (const auto& op : ops) {
    if (op.kind == MicroOp::Kind::MarkBegin) {
      (op.channel == apps::kChanAllreduce ? depth0 : depth1)++;
    } else if (op.kind == MicroOp::Kind::MarkEnd) {
      (op.channel == apps::kChanAllreduce ? depth0 : depth1)--;
    }
    EXPECT_GE(depth0, 0);
    EXPECT_LE(depth0, 1);
    EXPECT_GE(depth1, 0);
    EXPECT_LE(depth1, 1);
  }
  EXPECT_EQ(depth0, 0);
  EXPECT_EQ(depth1, 0);
}

TEST(AggregateTrace, WarmupPrependsUntimedCompute) {
  apps::AggregateTraceConfig cfg;
  cfg.loops = 1;
  cfg.calls_per_loop = 1;
  cfg.warmup = sim::Duration::sec(3);
  auto w = apps::aggregate_trace(cfg)(0, 4);
  const auto ops = drain(*w, 0, 4);
  ASSERT_FALSE(ops.empty());
  EXPECT_EQ(ops[0].kind, MicroOp::Kind::Compute);
  EXPECT_EQ(ops[0].dur().count(), sim::Duration::sec(3).count());
  // The warmup compute precedes the start barrier, which precedes any mark.
  std::size_t first_send = 0, first_mark = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!first_send && ops[i].kind == MicroOp::Kind::Send) first_send = i;
    if (!first_mark && ops[i].kind == MicroOp::Kind::MarkBegin) first_mark = i;
  }
  EXPECT_LT(first_send, first_mark);
}

TEST(AggregateTrace, TagBasesNeverRepeat) {
  apps::AggregateTraceConfig cfg;
  cfg.loops = 1;
  cfg.calls_per_loop = 50;
  auto w = apps::aggregate_trace(cfg)(1, 8);
  const auto ops = drain(*w, 1, 8);
  std::set<std::uint64_t> seen;
  for (const auto& op : ops) {
    if (op.kind == MicroOp::Kind::Send || op.kind == MicroOp::Kind::Recv) {
      // (peer, tag) pairs may repeat across direction but a given Send tag
      // appears once per (peer, tag).
      if (op.kind == MicroOp::Kind::Send) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(op.peer) << 40) | op.tag();
        EXPECT_TRUE(seen.insert(key).second)
            << "duplicate send key would alias in the mailbox";
      }
    }
  }
}

TEST(Ale3dProxy, PhaseStructureMatchesThePaper) {
  apps::Ale3dConfig cfg;
  cfg.timesteps = 10;
  cfg.checkpoint_every = 5;
  cfg.detach_for_io = true;
  auto w = apps::ale3d_proxy(cfg)(0, 4);
  const auto ops = drain(*w, 0, 4);
  // I/O phases: initial read + 1 checkpoint (step 5) + final dump = 3.
  EXPECT_EQ(count_kind(ops, MicroOp::Kind::Io), 3);
  EXPECT_EQ(count_marks(ops, apps::kChanIo, true), 3);
  // Detach/attach wrap every I/O phase.
  EXPECT_EQ(count_kind(ops, MicroOp::Kind::Detach), 3);
  EXPECT_EQ(count_kind(ops, MicroOp::Kind::Attach), 3);
  // One step span per timestep; reductions_per_step allreduce spans each.
  EXPECT_EQ(count_marks(ops, apps::kChanStep, true), 10);
  EXPECT_EQ(count_marks(ops, apps::kChanAllreduce, true),
            10 * cfg.reductions_per_step);
}

TEST(Ale3dProxy, NoDetachWhenEscapeDisabled) {
  apps::Ale3dConfig cfg;
  cfg.timesteps = 4;
  cfg.detach_for_io = false;
  auto w = apps::ale3d_proxy(cfg)(2, 8);
  const auto ops = drain(*w, 2, 8);
  EXPECT_EQ(count_kind(ops, MicroOp::Kind::Detach), 0);
  EXPECT_EQ(count_kind(ops, MicroOp::Kind::Attach), 0);
  EXPECT_EQ(count_kind(ops, MicroOp::Kind::Io), 2);  // read + dump
}

TEST(Ale3dProxy, ComputeHasBoundedImbalance) {
  apps::Ale3dConfig cfg;
  cfg.timesteps = 50;
  cfg.compute_mean = sim::Duration::ms(20);
  cfg.compute_cv = 0.05;
  auto w = apps::ale3d_proxy(cfg)(0, 4);
  const auto ops = drain(*w, 0, 4, /*seed=*/33);
  double total = 0;
  int n = 0;
  for (const auto& op : ops) {
    if (op.kind == MicroOp::Kind::Compute) {
      total += op.dur().to_ms();
      ++n;
      EXPECT_GT(op.dur().to_ms(), 5.0);   // floor at mean/4
      EXPECT_LT(op.dur().to_ms(), 40.0);  // plausible upper bound
    }
  }
  ASSERT_EQ(n, 50);
  EXPECT_NEAR(total / n, 20.0, 1.0);
}

TEST(Bsp, AlternatesComputeAndCollectives) {
  apps::BspConfig cfg;
  cfg.steps = 20;
  cfg.allreduces_per_step = 3;
  auto w = apps::bsp(cfg)(1, 4);
  const auto ops = drain(*w, 1, 4);
  EXPECT_EQ(count_marks(ops, apps::kChanStep, true), 20);
  EXPECT_EQ(count_marks(ops, apps::kChanCompute, true), 20);
  EXPECT_EQ(count_marks(ops, apps::kChanAllreduce, true), 60);
  EXPECT_EQ(count_kind(ops, MicroOp::Kind::Io), 0);
}

TEST(Workloads, PerRankStreamsDiffer) {
  // Different ranks get different collective schedules but the same counts.
  apps::BspConfig cfg;
  cfg.steps = 5;
  auto w0 = apps::bsp(cfg)(0, 8);
  auto w7 = apps::bsp(cfg)(7, 8);
  const auto a = drain(*w0, 0, 8);
  const auto b = drain(*w7, 7, 8);
  EXPECT_EQ(count_marks(a, apps::kChanStep, true),
            count_marks(b, apps::kChanStep, true));
  // Peers differ between ranks.
  bool differ = a.size() != b.size();
  for (std::size_t i = 0; !differ && i < a.size(); ++i)
    if (a[i].kind != b[i].kind || a[i].peer != b[i].peer) differ = true;
  EXPECT_TRUE(differ);
}

namespace {

/// The number of ops each refill of `factory`'s rank `rank` appends.
std::vector<std::size_t> refill_sizes(const mpi::WorkloadFactory& factory,
                                      int rank, int size) {
  auto w = factory(rank, size);
  sim::Rng rng(1);
  mpi::TaskInfo info{rank, size, &rng};
  std::vector<std::size_t> sizes;
  std::vector<MicroOp> chunk;
  while (w->refill(info, chunk)) {
    sizes.push_back(chunk.size());
    chunk.clear();
  }
  return sizes;
}

}  // namespace

TEST(Workloads, OpsPerRefillDoNotGrowWithRanks) {
  // A collective is one op whatever the communicator size, so a task's op
  // queue holds as many ops at the §6 size (8 192 ranks) as at 64.
  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = 130;
  at.warmup = sim::Duration::ms(1);
  apps::Ale3dConfig ale;
  ale.timesteps = 12;
  ale.checkpoint_every = 5;
  for (const auto& factory : {apps::aggregate_trace(at), apps::ale3d_proxy(ale)}) {
    for (int rank : {0, 1, 63}) {
      const auto small = refill_sizes(factory, rank, 64);
      EXPECT_EQ(small, refill_sizes(factory, rank, 8192)) << "rank " << rank;
      EXPECT_EQ(small, refill_sizes(factory, 8191 - 63 + rank, 8192))
          << "rank " << rank;
    }
  }
}
