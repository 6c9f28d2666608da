// The message-passing runtime executed on the simulator: job placement,
// p2p semantics, barrier/allreduce timing semantics, spin-vs-block behavior,
// the progress-engine aux threads, distributed I/O, and the scheduler hook
// protocol.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "mpi/collectives.hpp"
#include "mpi/job.hpp"
#include "serial_engine.hpp"
#include "sim/engine.hpp"
#include "trace/events.hpp"

using namespace pasched;
using namespace pasched::sim::literals;
using sim::Duration;
using sim::Engine;
using sim::Time;

namespace {

/// Workload built from a fixed op list (single refill).
class FixedOps final : public mpi::Workload {
 public:
  explicit FixedOps(std::vector<mpi::MicroOp> ops) : ops_(std::move(ops)) {}
  bool refill(const mpi::TaskInfo&, std::vector<mpi::MicroOp>& out) override {
    if (done_ || ops_.empty()) return false;
    done_ = true;
    out = ops_;
    return true;
  }

 private:
  std::vector<mpi::MicroOp> ops_;
  bool done_ = false;
};

cluster::ClusterConfig sterile(int nodes) {
  cluster::ClusterConfig cfg = cluster::presets::frost(nodes);
  cfg.node.install_daemons = false;
  cfg.node.max_clock_offset = Duration::zero();
  cfg.fabric.jitter_frac = 0.0;
  cfg.seed = 1;
  return cfg;
}

struct Rig {
  explicit Rig(int nodes)
      : serial(nodes), cluster(serial.sharded, sterile(nodes)) {}
  testutil::SerialEngine serial;
  Engine& engine = serial.engine;
  cluster::Cluster cluster;
};

mpi::JobConfig job_cfg(int ntasks, int tpn) {
  mpi::JobConfig jc;
  jc.ntasks = ntasks;
  jc.tasks_per_node = tpn;
  jc.mpi.progress_engine = false;  // most tests want determinism
  return jc;
}

}  // namespace

TEST(MpiJob, PlacementIsBlockwise) {
  Rig rig(3);
  auto factory = [](int, int) {
    return std::make_unique<FixedOps>(std::vector<mpi::MicroOp>{});
  };
  mpi::Job job(rig.cluster, job_cfg(40, 16), factory);
  EXPECT_EQ(job.task(0).node().id(), 0);
  EXPECT_EQ(job.task(15).node().id(), 0);
  EXPECT_EQ(job.task(16).node().id(), 1);
  EXPECT_EQ(job.task(39).node().id(), 2);
  EXPECT_EQ(job.task(17).thread().home_cpu(), 1);
}

TEST(MpiJob, RejectsOverflowingPlacement) {
  Rig rig(2);
  auto factory = [](int, int) {
    return std::make_unique<FixedOps>(std::vector<mpi::MicroOp>{});
  };
  EXPECT_THROW(mpi::Job(rig.cluster, job_cfg(33, 16), factory),
               std::logic_error);
  EXPECT_THROW(mpi::Job(rig.cluster, job_cfg(2, 17), factory),
               std::logic_error);
}

TEST(MpiJob, PingPongAcrossNodes) {
  Rig rig(2);
  auto factory = [](int rank, int) {
    std::vector<mpi::MicroOp> ops;
    if (rank == 0) {
      ops.push_back(mpi::MicroOp::mark_begin(0, 0));
      ops.push_back(mpi::MicroOp::send(1, 7, 8));
      ops.push_back(mpi::MicroOp::recv(1, 8));
      ops.push_back(mpi::MicroOp::mark_end(0, 0));
    } else {
      ops.push_back(mpi::MicroOp::recv(0, 7));
      ops.push_back(mpi::MicroOp::send(0, 8, 8));
    }
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::JobConfig jc = job_cfg(2, 1);
  mpi::Job job(rig.cluster, jc, factory);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 1_s);
  ASSERT_TRUE(job.complete());
  const auto& ch = job.channel(0);
  ASSERT_EQ(ch.recorded_us.size(), 1u);
  // RTT: 2 * (o_send 6us + wire 20us + bytes + o_recv 6us) plus scheduling.
  EXPECT_GT(ch.recorded_us[0], 50.0);
  EXPECT_LT(ch.recorded_us[0], 150.0);
}

TEST(MpiJob, BarrierHoldsEveryoneUntilLastArrives) {
  // Rank 2 computes 5 ms before the barrier; no rank's barrier-exit happens
  // before rank 2 even starts it.
  Rig rig(1);
  auto factory = [](int rank, int size) {
    std::vector<mpi::MicroOp> ops;
    if (rank == 2) ops.push_back(mpi::MicroOp::compute(5_ms));
    ops.push_back(mpi::MicroOp::mark_begin(1, 0));
    mpi::append_barrier(ops, rank, size, 0);
    ops.push_back(mpi::MicroOp::mark_end(1, 0));
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::Job job(rig.cluster, job_cfg(4, 4), factory);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 1_s);
  ASSERT_TRUE(job.complete());
  // Every task's barrier span ends after 5 ms (rank 2's compute).
  EXPECT_GE(job.completion_time().count(), Duration::ms(5).count());
  // Ranks 0,1,3 spent ~5 ms inside the barrier (they spin-wait).
  EXPECT_GT(job.channel(1).all_us.max(), 4500.0);
}

TEST(MpiJob, AllreduceTimeScalesWithLog) {
  auto mean_for = [](int ntasks, int tpn, int nodes) {
    Rig rig(nodes);
    auto factory = [ntasks](int rank, int size) {
      std::vector<mpi::MicroOp> ops;
      mpi::append_barrier(ops, rank, size, 0);
      ops.push_back(mpi::MicroOp::mark_begin(0, 0));
      mpi::append_allreduce(ops, rank, size, 8, mpi::kTagStride,
                            mpi::AllreduceAlg::BinomialTree);
      ops.push_back(mpi::MicroOp::mark_end(0, 0));
      (void)ntasks;
      return std::make_unique<FixedOps>(std::move(ops));
    };
    mpi::Job job(rig.cluster, job_cfg(ntasks, tpn), factory);
    rig.cluster.start();
    job.launch();
    rig.engine.run_until(Time::zero() + 1_s);
    EXPECT_TRUE(job.complete());
    return job.channel(0).all_us.mean();
  };
  const double t64 = mean_for(64, 16, 4);
  const double t256 = mean_for(256, 16, 16);
  // On a sterile cluster the growth must be logarithmic-ish (ratio well
  // under the 4x a linear model would give).
  EXPECT_GT(t256, t64);
  EXPECT_LT(t256 / t64, 2.0);
}

TEST(MpiJob, SpinWaitConsumesCpuBlockingIoDoesNot) {
  // This test needs an I/O service, so build a node *with* daemons.
  cluster::ClusterConfig cfg = cluster::presets::frost(1);
  cfg.node.max_clock_offset = Duration::zero();
  cfg.fabric.jitter_frac = 0.0;
  testutil::SerialEngine serial(cfg.nodes);
  Engine& engine = serial.engine;
  cluster::Cluster cl(serial.sharded, cfg);
  auto factory = [](int rank, int) {
    std::vector<mpi::MicroOp> ops;
    if (rank == 0) ops.push_back(mpi::MicroOp::io(1024));
    ops.push_back(mpi::MicroOp::compute(1_ms));
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::JobConfig jc = job_cfg(2, 2);
  jc.io_remote_shards = 0;
  mpi::Job job(cl, jc, factory);
  cl.start();
  job.launch();
  engine.run_until(Time::zero() + 5_s);
  ASSERT_TRUE(job.complete());
  // Task 0 blocked during I/O: its CPU time is ~1 ms of compute only.
  EXPECT_LT(job.task(0).thread().total_cpu().to_ms(), 2.0);
}

TEST(MpiJob, DistributedIoFansOutToPeerDaemons) {
  cluster::ClusterConfig cfg = cluster::presets::frost(3);
  cfg.node.max_clock_offset = Duration::zero();
  testutil::SerialEngine serial(cfg.nodes);
  Engine& engine = serial.engine;
  cluster::Cluster cl(serial.sharded, cfg);
  auto factory = [](int rank, int) {
    std::vector<mpi::MicroOp> ops;
    if (rank == 0) ops.push_back(mpi::MicroOp::io(3 * 1024 * 1024));
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::JobConfig jc = job_cfg(3, 1);
  jc.io_remote_shards = 2;
  mpi::Job job(cl, jc, factory);
  cl.start();
  job.launch();
  engine.run_until(Time::zero() + 20_s);
  ASSERT_TRUE(job.complete());
  // All three nodes' mmfsd saw roughly a third of the bytes.
  for (int n = 0; n < 3; ++n) {
    EXPECT_GE(cl.node(n).io_service()->stats().requests, 1u)
        << "node " << n << " should have served a shard";
  }
}

TEST(MpiJob, AuxThreadsPollAndConsumeCpu) {
  Rig rig(1);
  auto factory = [](int, int) {
    std::vector<mpi::MicroOp> ops;
    ops.push_back(mpi::MicroOp::compute(Duration::sec(2)));
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::JobConfig jc = job_cfg(2, 2);
  jc.mpi.progress_engine = true;
  jc.mpi.polling_interval = 200_ms;
  mpi::Job job(rig.cluster, jc, factory);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 5_s);
  ASSERT_TRUE(job.complete());
  EXPECT_GT(job.aux_cpu_total().count(), 0);
  // ~2 s of runtime at a 200 ms polling interval: several polls per task,
  // each 100-200 us.
  EXPECT_GT(job.aux_cpu_total().to_us(), 2 * 5 * 100.0 * 0.5);
}

TEST(MpiJob, PollingIntervalBeyondRuntimeMeansNoAuxCpu) {
  Rig rig(1);
  auto factory = [](int, int) {
    std::vector<mpi::MicroOp> ops;
    ops.push_back(mpi::MicroOp::compute(500_ms));
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::JobConfig jc = job_cfg(2, 2);
  jc.mpi.progress_engine = true;
  jc.mpi.polling_interval = Duration::sec(400);  // MP_POLLING_INTERVAL fix
  mpi::Job job(rig.cluster, jc, factory);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 5_s);
  ASSERT_TRUE(job.complete());
  EXPECT_EQ(job.aux_cpu_total().count(), 0);
}

namespace {

/// Records the control-pipe protocol traffic.
struct RecordingHook final : mpi::SchedulerHook {
  std::vector<std::pair<int, const kern::Thread*>> registered;
  std::vector<const kern::Thread*> detached, attached;
  int ended = 0;
  void register_task(kern::NodeId node, kern::Thread& t) override {
    registered.emplace_back(node, &t);
  }
  void detach_task(kern::NodeId, kern::Thread& t) override {
    detached.push_back(&t);
  }
  void attach_task(kern::NodeId, kern::Thread& t) override {
    attached.push_back(&t);
  }
  void job_ended() override { ++ended; }
};

}  // namespace

TEST(MpiJob, HookProtocolFollowsThePaper) {
  Rig rig(2);
  auto factory = [](int, int) {
    std::vector<mpi::MicroOp> ops;
    ops.push_back(mpi::MicroOp::detach());
    ops.push_back(mpi::MicroOp::compute(1_ms));
    ops.push_back(mpi::MicroOp::attach());
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::Job job(rig.cluster, job_cfg(4, 2), factory);
  RecordingHook hook;
  job.set_hook(&hook);
  rig.cluster.start();
  job.launch();
  // Registration happens at launch (MPI_Init), before any compute.
  EXPECT_EQ(hook.registered.size(), 4u);
  EXPECT_EQ(hook.registered[0].first, 0);
  EXPECT_EQ(hook.registered[3].first, 1);
  rig.engine.run_until(Time::zero() + 1_s);
  ASSERT_TRUE(job.complete());
  EXPECT_EQ(hook.detached.size(), 4u);
  EXPECT_EQ(hook.attached.size(), 4u);
  EXPECT_EQ(hook.ended, 1);
}

TEST(MpiJob, RecordedRankSpansInSequenceOrder) {
  Rig rig(1);
  auto factory = [](int, int) {
    std::vector<mpi::MicroOp> ops;
    for (std::uint64_t i = 0; i < 5; ++i) {
      ops.push_back(mpi::MicroOp::mark_begin(0, i));
      ops.push_back(mpi::MicroOp::compute(Duration::us(100 * (i + 1))));
      ops.push_back(mpi::MicroOp::mark_end(0, i));
    }
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::Job job(rig.cluster, job_cfg(1, 1), factory);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 1_s);
  ASSERT_TRUE(job.complete());
  const auto& ch = job.channel(0);
  ASSERT_EQ(ch.recorded_us.size(), 5u);
  ASSERT_EQ(ch.recorded_begin.size(), 5u);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_GT(ch.recorded_us[i], ch.recorded_us[i - 1]);
    EXPECT_GT(ch.recorded_begin[i].count(), ch.recorded_begin[i - 1].count());
  }
  EXPECT_EQ(job.channel(0).all_us.count(), 5u);
}

namespace {

/// The receive-side events (waits and consumes) of `rank`, in order.
std::vector<trace::Event> recv_events(const trace::EventLog& log, int rank) {
  std::vector<trace::Event> out;
  for (const trace::Event& e : log.events())
    if (e.dst_rank == rank && (e.kind == trace::EventKind::MsgRecvWait ||
                               e.kind == trace::EventKind::MsgRecv))
      out.push_back(e);
  return out;
}

}  // namespace

TEST(MpiJob, EarlyDuplicatesAreConsumedOnePerReceive) {
  // Two sends with the same (src, tag) reach rank 1 before it posts a
  // receive; a third follows 20 ms later. Each receive takes exactly one:
  // the first two find a message, the third waits for the late one.
  Rig rig(2);
  auto factory = [](int rank, int) {
    std::vector<mpi::MicroOp> ops;
    if (rank == 0) {
      ops.push_back(mpi::MicroOp::send(1, 5, 8));
      ops.push_back(mpi::MicroOp::send(1, 5, 8));
      ops.push_back(mpi::MicroOp::compute(20_ms));
      ops.push_back(mpi::MicroOp::send(1, 5, 8));
    } else {
      ops.push_back(mpi::MicroOp::compute(5_ms));
      ops.push_back(mpi::MicroOp::recv(0, 5));
      ops.push_back(mpi::MicroOp::recv(0, 5));
      ops.push_back(mpi::MicroOp::mark_begin(0, 0));
      ops.push_back(mpi::MicroOp::recv(0, 5));
      ops.push_back(mpi::MicroOp::mark_end(0, 0));
    }
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::JobConfig jc = job_cfg(2, 1);
  jc.record_rank = 1;
  mpi::Job job(rig.cluster, jc, factory);
  trace::EventLog log;
  log.enable();
  job.set_event_log(&log);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 1_s);
  ASSERT_TRUE(job.complete());
  const std::vector<trace::Event> ev = recv_events(log, 1);
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].kind, trace::EventKind::MsgRecv);
  EXPECT_EQ(ev[1].kind, trace::EventKind::MsgRecv);
  EXPECT_EQ(ev[2].kind, trace::EventKind::MsgRecvWait);
  EXPECT_EQ(ev[3].kind, trace::EventKind::MsgRecv);
  // The third receive waited from ~5 ms to the late send at ~20 ms.
  ASSERT_EQ(job.channel(0).recorded_us.size(), 1u);
  EXPECT_GT(job.channel(0).recorded_us[0], 14'000.0);
}

TEST(MpiJob, ManyEarlyKeysDrainInReverseAndInSentOrder) {
  // Rank 1 holds 14 distinct early keys and receives them last-sent first;
  // then 14 more early keys, received first-sent first, so every consume
  // swap-removes from the front of the mailbox. A third round of the same
  // keys, each sent 1 ms apart, must find nothing left over: every one of
  // those receives waits.
  constexpr std::uint64_t kKeys = 14;
  Rig rig(2);
  auto factory = [](int rank, int) {
    std::vector<mpi::MicroOp> ops;
    if (rank == 0) {
      for (std::uint64_t tag = 0; tag < kKeys; ++tag)
        ops.push_back(mpi::MicroOp::send(1, tag, 8));
      ops.push_back(mpi::MicroOp::compute(10_ms));
      for (std::uint64_t tag = 0; tag < kKeys; ++tag)
        ops.push_back(mpi::MicroOp::send(1, tag, 8));
      ops.push_back(mpi::MicroOp::compute(20_ms));
      for (std::uint64_t tag = 0; tag < kKeys; ++tag) {
        ops.push_back(mpi::MicroOp::send(1, tag, 8));
        ops.push_back(mpi::MicroOp::compute(1_ms));
      }
    } else {
      ops.push_back(mpi::MicroOp::compute(5_ms));
      for (std::uint64_t tag = kKeys; tag-- > 0;)
        ops.push_back(mpi::MicroOp::recv(0, tag));
      ops.push_back(mpi::MicroOp::compute(10_ms));
      for (int round = 0; round < 2; ++round)
        for (std::uint64_t tag = 0; tag < kKeys; ++tag)
          ops.push_back(mpi::MicroOp::recv(0, tag));
    }
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::Job job(rig.cluster, job_cfg(2, 1), factory);
  trace::EventLog log;
  log.enable();
  job.set_event_log(&log);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 1_s);
  ASSERT_TRUE(job.complete());
  const std::vector<trace::Event> ev = recv_events(log, 1);
  ASSERT_EQ(ev.size(), 4 * kKeys);
  // Rounds one and two: no receive waits, and they take the keys in
  // opposite orders.
  for (std::size_t i = 0; i < 2 * kKeys; ++i)
    EXPECT_EQ(ev[i].kind, trace::EventKind::MsgRecv) << i;
  for (std::size_t k = 0; k < kKeys; ++k)
    EXPECT_EQ(ev[k].msg_id, ev[2 * kKeys - 1 - k].msg_id) << k;
  // Round three: each receive waits for its own message.
  for (std::size_t i = 2 * kKeys; i < ev.size(); i += 2) {
    EXPECT_EQ(ev[i].kind, trace::EventKind::MsgRecvWait) << i;
    EXPECT_EQ(ev[i + 1].kind, trace::EventKind::MsgRecv) << i;
    EXPECT_EQ(ev[i].msg_id, ev[i + 1].msg_id) << i;
    EXPECT_EQ(ev[i].msg_id, ev[kKeys + (i - 2 * kKeys) / 2].msg_id) << i;
  }
}

TEST(MpiJob, SpanLongerThanTwoToThe32NanosecondsFoldsExactly) {
  // The span log keeps a span's length in ns above its channel bits; a
  // 5 s span does not fit 32 bits and must still fold to the exact
  // (end - begin).to_us().
  Rig rig(1);
  auto factory = [](int, int) {
    std::vector<mpi::MicroOp> ops;
    ops.push_back(mpi::MicroOp::compute(1_ms));
    ops.push_back(mpi::MicroOp::mark_begin(5, 0));
    ops.push_back(mpi::MicroOp::compute(Duration::sec(5)));
    ops.push_back(mpi::MicroOp::mark_end(5, 0));
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::Job job(rig.cluster, job_cfg(1, 1), factory);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 10_s);
  ASSERT_TRUE(job.complete());
  const mpi::ChannelStats& ch = job.channel(5);
  ASSERT_EQ(ch.recorded_us.size(), 1u);
  ASSERT_EQ(ch.recorded_begin.size(), 1u);
  // The span closes with the task's last op, at its finish time.
  const double expected =
      (job.task(0).finish_time() - ch.recorded_begin[0]).to_us();
  EXPECT_GT(expected, static_cast<double>(1ULL << 32) / 1000.0);
  EXPECT_EQ(ch.recorded_us[0], expected);
  EXPECT_EQ(ch.all_us.count(), 1u);
  EXPECT_EQ(ch.all_us.min(), expected);
  EXPECT_EQ(ch.all_us.max(), expected);
}

TEST(MpiJob, RecordedBeginsStayAlignedAcrossInterleavedChannels) {
  // Rank 1 is the recorded rank and interleaves channels 0 and 1, three
  // times over; rank 0 contributes a channel-0 span of its own. Each
  // channel's recorded_begin must pair with its own recorded_us.
  Rig rig(1);
  auto factory = [](int rank, int) {
    std::vector<mpi::MicroOp> ops;
    if (rank == 0) {
      ops.push_back(mpi::MicroOp::mark_begin(0, 0));
      ops.push_back(mpi::MicroOp::compute(7_ms));
      ops.push_back(mpi::MicroOp::mark_end(0, 0));
      return std::make_unique<FixedOps>(std::move(ops));
    }
    for (std::uint64_t k = 0; k < 3; ++k) {
      ops.push_back(mpi::MicroOp::mark_begin(0, k));
      ops.push_back(mpi::MicroOp::compute(Duration::ms(
          static_cast<std::int64_t>(k) + 1)));
      ops.push_back(mpi::MicroOp::mark_begin(1, k));
      ops.push_back(mpi::MicroOp::compute(1_ms));
      ops.push_back(mpi::MicroOp::mark_end(0, k));
      ops.push_back(mpi::MicroOp::compute(2_ms));
      ops.push_back(mpi::MicroOp::mark_end(1, k));
    }
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::JobConfig jc = job_cfg(2, 2);
  jc.record_rank = 1;
  mpi::Job job(rig.cluster, jc, factory);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 1_s);
  ASSERT_TRUE(job.complete());
  const mpi::ChannelStats& c0 = job.channel(0);
  const mpi::ChannelStats& c1 = job.channel(1);
  ASSERT_EQ(c0.recorded_us.size(), 3u);
  ASSERT_EQ(c0.recorded_begin.size(), 3u);
  ASSERT_EQ(c1.recorded_us.size(), 3u);
  ASSERT_EQ(c1.recorded_begin.size(), 3u);
  EXPECT_EQ(c0.all_us.count(), 4u);  // rank 0's span is not recorded
  EXPECT_EQ(c1.all_us.count(), 3u);
  const auto end_of = [](const mpi::ChannelStats& c, std::size_t k) {
    return c.recorded_begin[k] +
           Duration::ns(std::llround(c.recorded_us[k] * 1000.0));
  };
  for (std::size_t k = 0; k < 3; ++k) {
    const double ms = static_cast<double>(k) + 1.0;
    // Channel 1 opens (k + 1) ms into channel 0's span k ...
    EXPECT_GE((c1.recorded_begin[k] - c0.recorded_begin[k]).to_ms(), ms);
    EXPECT_LT((c1.recorded_begin[k] - c0.recorded_begin[k]).to_ms(),
              ms + 0.5);
    // ... channel 0 closes 1 ms later, inside channel 1's span ...
    EXPECT_GE(c0.recorded_us[k], (ms + 1.0) * 1000.0);
    EXPECT_LT(end_of(c0, k), end_of(c1, k));
    EXPECT_GE(c1.recorded_us[k], 3000.0);
    // ... and the next channel-0 span opens as channel 1's span k closes.
    if (k + 1 < 3) {
      EXPECT_EQ(c0.recorded_begin[k + 1], end_of(c1, k));
    }
  }
}

TEST(MpiJob, SpinBlockReceiverYieldsCpuWhileWaiting) {
  Rig rig(1);
  auto factory = [](int rank, int) {
    std::vector<mpi::MicroOp> ops;
    if (rank == 0) {
      ops.push_back(mpi::MicroOp::recv(1, 9));  // waits ~50 ms for rank 1
    } else {
      ops.push_back(mpi::MicroOp::compute(50_ms));
      ops.push_back(mpi::MicroOp::send(0, 9, 8));
    }
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::JobConfig jc = job_cfg(2, 2);
  jc.mpi.recv_wait = mpi::RecvWait::SpinBlock;
  jc.mpi.spin_threshold = Duration::us(100);
  mpi::Job job(rig.cluster, jc, factory);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 1_s);
  ASSERT_TRUE(job.complete());
  // Rank 0 burned only the spin threshold + o_recv + wakeup, not 50 ms.
  EXPECT_LT(job.task(0).thread().total_cpu().to_us(), 500.0);
  // With pure spinning the same wait costs the whole 50 ms of CPU.
  Rig rig2(1);
  mpi::JobConfig jc2 = job_cfg(2, 2);
  jc2.mpi.recv_wait = mpi::RecvWait::Spin;
  mpi::Job job2(rig2.cluster, jc2, factory);
  rig2.cluster.start();
  job2.launch();
  rig2.engine.run_until(Time::zero() + 1_s);
  ASSERT_TRUE(job2.complete());
  EXPECT_GT(job2.task(0).thread().total_cpu().to_ms(), 40.0);
}

TEST(MpiJob, SpinBlockWithZeroThresholdBlocksImmediately) {
  Rig rig(1);
  auto factory = [](int rank, int) {
    std::vector<mpi::MicroOp> ops;
    if (rank == 0) {
      ops.push_back(mpi::MicroOp::recv(1, 3));
    } else {
      ops.push_back(mpi::MicroOp::compute(10_ms));
      ops.push_back(mpi::MicroOp::send(0, 3, 8));
    }
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::JobConfig jc = job_cfg(2, 2);
  jc.mpi.recv_wait = mpi::RecvWait::SpinBlock;
  jc.mpi.spin_threshold = Duration::zero();
  mpi::Job job(rig.cluster, jc, factory);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 1_s);
  ASSERT_TRUE(job.complete());
  EXPECT_LT(job.task(0).thread().total_cpu().to_us(), 100.0);
}

TEST(MpiJob, SpinBlockCollectivesStillCorrect) {
  Rig rig(2);
  auto factory = [](int rank, int size) {
    std::vector<mpi::MicroOp> ops;
    ops.push_back(mpi::MicroOp::mark_begin(0, 0));
    mpi::append_allreduce(ops, rank, size, 8, 0,
                          mpi::AllreduceAlg::BinomialTree);
    ops.push_back(mpi::MicroOp::mark_end(0, 0));
    mpi::append_barrier(ops, rank, size, mpi::kTagStride);
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::JobConfig jc = job_cfg(32, 16);
  jc.mpi.recv_wait = mpi::RecvWait::SpinBlock;
  jc.mpi.spin_threshold = Duration::us(20);
  mpi::Job job(rig.cluster, jc, factory);
  rig.cluster.start();
  job.launch();
  rig.engine.run_until(Time::zero() + 5_s);
  EXPECT_TRUE(job.complete());
  EXPECT_EQ(job.channel(0).all_us.count(), 32u);
}

TEST(MpiJob, EngineStopsOnCompletionByDefault) {
  Rig rig(1);
  auto factory = [](int, int) {
    std::vector<mpi::MicroOp> ops;
    ops.push_back(mpi::MicroOp::compute(1_ms));
    return std::make_unique<FixedOps>(std::move(ops));
  };
  mpi::Job job(rig.cluster, job_cfg(2, 2), factory);
  rig.cluster.start();
  job.launch();
  rig.engine.run();  // would never return if completion didn't stop it
  EXPECT_TRUE(job.complete());
  EXPECT_GT(job.elapsed().count(), 0);
}
