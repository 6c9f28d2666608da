// Fabric latency model, per-pair FIFO ordering, switch clock + sync, node
// clock offsets, and cluster assembly / presets.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "net/clock_sync.hpp"
#include "net/fabric.hpp"
#include "serial_engine.hpp"
#include "sim/engine.hpp"

using namespace pasched;
using namespace pasched::sim::literals;
using sim::Duration;
using sim::Engine;
using sim::Time;
using testutil::SerialEngine;

namespace {
// Node ids the hand-built fabrics below send between.
constexpr int kFabricNodes = 10;

net::FabricConfig no_jitter() {
  net::FabricConfig cfg;
  cfg.jitter_frac = 0.0;
  return cfg;
}
}  // namespace

TEST(Fabric, InterNodeLatencyModel) {
  SerialEngine serial(kFabricNodes);
  Engine& e = serial.engine;
  net::Fabric f(serial.sharded, no_jitter(), sim::Rng(1), kFabricNodes);
  Time delivered{};
  f.send(0, 1, 1000, [&] { delivered = e.now(); });
  e.run();
  // 20 us + 1000 * 2 ns = 22 us.
  EXPECT_EQ(delivered.count(), Duration::us(22).count());
  EXPECT_EQ(f.stats().messages, 1u);
  EXPECT_EQ(f.stats().bytes, 1000u);
}

TEST(Fabric, IntraNodeIsSharedMemoryLatency) {
  SerialEngine serial(kFabricNodes);
  Engine& e = serial.engine;
  net::Fabric f(serial.sharded, no_jitter(), sim::Rng(1), kFabricNodes);
  Time delivered{};
  f.send(3, 3, 0, [&] { delivered = e.now(); });
  e.run();
  EXPECT_EQ(delivered.count(), Duration::us(1).count());
  EXPECT_EQ(f.stats().intra_node, 1u);
}

TEST(Fabric, PerPairFifoEvenWithSizeInversion) {
  SerialEngine serial(kFabricNodes);
  Engine& e = serial.engine;
  net::Fabric f(serial.sharded, no_jitter(), sim::Rng(1), kFabricNodes);
  std::vector<int> order;
  // Big message first, small second: naive latency would reorder them.
  f.send(0, 1, 1'000'000, [&] { order.push_back(1); });
  f.send(0, 1, 8, [&] { order.push_back(2); });
  e.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Fabric, PerPairFifoHoldsAcrossManyDestinations) {
  // One source talks to 47 destinations, each pair seeing a big message,
  // then a small one, then a medium one sent in reverse destination order:
  // every pair's deliveries keep their send order even though the per-
  // source watermarks are found by scanning.
  constexpr int kNodes = 48;
  SerialEngine serial(kNodes);
  Engine& e = serial.engine;
  net::Fabric f(serial.sharded, no_jitter(), sim::Rng(1), kNodes);
  std::vector<std::vector<int>> got(kNodes);
  for (int d = 1; d < kNodes; ++d)
    f.send(0, d, 1'000'000, [&got, d] { got[d].push_back(1); });
  for (int d = 1; d < kNodes; ++d)
    f.send(0, d, 8, [&got, d] { got[d].push_back(2); });
  for (int d = kNodes - 1; d >= 1; --d)
    f.send(0, d, 10'000, [&got, d] { got[d].push_back(3); });
  e.run();
  for (int d = 1; d < kNodes; ++d)
    EXPECT_EQ(got[d], (std::vector<int>{1, 2, 3})) << "destination " << d;
  EXPECT_EQ(f.stats().messages, 3u * (kNodes - 1));
}

TEST(Fabric, DistinctPairsDoNotSerialize) {
  SerialEngine serial(kFabricNodes);
  Engine& e = serial.engine;
  net::Fabric f(serial.sharded, no_jitter(), sim::Rng(1), kFabricNodes);
  std::vector<int> order;
  f.send(0, 1, 1'000'000, [&] { order.push_back(1); });
  f.send(2, 3, 8, [&] { order.push_back(2); });
  e.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2);  // small message on the independent pair wins
}

TEST(Fabric, SendFromANodeOutsideThePresizedPortsIsRejected) {
  SerialEngine serial(kFabricNodes);
  net::Fabric f(serial.sharded, no_jitter(), sim::Rng(1), kFabricNodes);
  EXPECT_THROW(f.send(kFabricNodes, 0, 8, [] {}), std::logic_error);
  EXPECT_THROW(f.send(-1, 0, 8, [] {}), std::logic_error);
  // The destination indexes the per-node link state: it is checked too.
  EXPECT_THROW(f.send(0, kFabricNodes, 8, [] {}), std::logic_error);
  EXPECT_THROW(f.send(0, -1, 8, [] {}), std::logic_error);
}

TEST(Fabric, JitterIsBoundedAndDeterministic) {
  SerialEngine s1(kFabricNodes), s2(kFabricNodes);
  Engine& e1 = s1.engine;
  Engine& e2 = s2.engine;
  net::FabricConfig cfg;
  cfg.jitter_frac = 0.05;
  net::Fabric f1(s1.sharded, cfg, sim::Rng(9), kFabricNodes);
  net::Fabric f2(s2.sharded, cfg, sim::Rng(9), kFabricNodes);
  Time t1{}, t2{};
  f1.send(0, 1, 8, [&] { t1 = e1.now(); });
  f2.send(0, 1, 8, [&] { t2 = e2.now(); });
  e1.run();
  e2.run();
  EXPECT_EQ(t1.count(), t2.count());  // same seed, same jitter
  const double nominal = f1.latency_for(0, 1, 8).to_us();
  EXPECT_GE(static_cast<double>(t1.count()) / 1000.0, nominal * 0.95 - 0.01);
  EXPECT_LE(static_cast<double>(t1.count()) / 1000.0, nominal * 1.05 + 0.01);
}

TEST(Fabric, LinkContentionSerializesIngressBursts) {
  SerialEngine serial(kFabricNodes);
  Engine& e = serial.engine;
  net::FabricConfig cfg = no_jitter();
  cfg.link_bandwidth = 1e6;  // 1 MB/s: 100 KB takes 100 ms on a link
  net::Fabric f(serial.sharded, cfg, sim::Rng(1), kFabricNodes);
  std::vector<Time> arrivals(4);
  // Four different senders converge on node 9: ingress must serialize them.
  for (int s = 0; s < 4; ++s) {
    f.send(s, 9, 100'000, [&, s] { arrivals[static_cast<std::size_t>(s)] = e.now(); });
  }
  e.run();
  std::sort(arrivals.begin(), arrivals.end());
  // First arrives after ~1 transfer, last after ~4 serialized transfers.
  EXPECT_GE((arrivals[3] - arrivals[0]).to_ms(), 250.0);
  EXPECT_GE(arrivals[0].since_epoch().to_ms(), 90.0);
}

TEST(Fabric, LinkContentionOffKeepsLatencyModel) {
  SerialEngine serial(kFabricNodes);
  Engine& e = serial.engine;
  net::Fabric f(serial.sharded, no_jitter(), sim::Rng(1), kFabricNodes);  // link_bandwidth = 0
  std::vector<Time> arrivals(4);
  for (int s = 0; s < 4; ++s) {
    f.send(s, 9, 100'000, [&, s] { arrivals[static_cast<std::size_t>(s)] = e.now(); });
  }
  e.run();
  // Contention-free: everyone arrives at the same nominal latency.
  for (int s = 1; s < 4; ++s)
    EXPECT_EQ(arrivals[static_cast<std::size_t>(s)].count(),
              arrivals[0].count());
}

TEST(Fabric, LinkContentionDistinctDestinationsDoNotInterfere) {
  SerialEngine serial(kFabricNodes);
  Engine& e = serial.engine;
  net::FabricConfig cfg = no_jitter();
  cfg.link_bandwidth = 1e6;
  net::Fabric f(serial.sharded, cfg, sim::Rng(1), kFabricNodes);
  Time a{}, b{};
  f.send(0, 1, 100'000, [&] { a = e.now(); });
  f.send(2, 3, 100'000, [&] { b = e.now(); });
  e.run();
  EXPECT_EQ(a.count(), b.count());  // independent links, no queueing
}

TEST(SwitchClock, ReadsGlobalTime) {
  Engine e;
  net::SwitchClock sw(e);
  e.schedule_at(Time::zero() + 5_ms, [] {});
  e.run();
  EXPECT_EQ(sw.read().count(), e.now().count());
}

TEST(ClockSync, RemovesOffsetToWithinResidual) {
  Engine e;
  net::SwitchClock sw(e);
  kern::LocalClock clock(Duration::ms(73));  // big boot offset
  net::ClockSyncConfig cfg;
  cfg.max_residual_error = 2_us;
  sim::Rng rng(5);
  const Duration residual = net::synchronize(clock, sw, cfg, rng);
  EXPECT_LE(std::abs(residual.count()), Duration::us(2).count());
  EXPECT_EQ(clock.offset().count(), residual.count());
}

TEST(LocalClock, RoundTripsLocalAndGlobal) {
  kern::LocalClock c(Duration::ms(42));
  const Time g = Time::from_ns(1'000'000'000);
  EXPECT_EQ(c.local_of(g).count(), 1'042'000'000);
  EXPECT_EQ(c.global_of(c.local_of(g)).count(), g.count());
}

TEST(Cluster, AssemblesNodesWithDistinctClockOffsets) {
  cluster::ClusterConfig cfg = cluster::presets::frost(4);
  cfg.seed = 3;
  SerialEngine serial(cfg.nodes);
  cluster::Cluster c(serial.sharded, cfg);
  ASSERT_EQ(c.size(), 4);
  bool any_nonzero = false;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.node(i).kernel().ncpus(), 16);
    if (c.node(i).kernel().clock().offset() != Duration::zero())
      any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero) << "boot offsets should be randomized";
}

TEST(Cluster, SynchronizeClocksZeroesOffsets) {
  cluster::ClusterConfig cfg = cluster::presets::frost(6);
  SerialEngine serial(cfg.nodes);
  cluster::Cluster c(serial.sharded, cfg);
  const Duration worst = c.synchronize_clocks();
  EXPECT_LE(worst.count(), Duration::us(2).count());
  for (int i = 0; i < c.size(); ++i)
    EXPECT_LE(std::abs(c.node(i).kernel().clock().offset().count()),
              Duration::us(2).count());
}

TEST(Cluster, PresetsMatchTheMachines) {
  EXPECT_EQ(cluster::presets::frost().nodes, 68);
  EXPECT_EQ(cluster::presets::asci_white().nodes, 512);
  EXPECT_EQ(cluster::presets::blue_oak().nodes, 120);
  EXPECT_EQ(cluster::presets::frost().node.ncpus, 16);
  EXPECT_LT(cluster::presets::blue_oak().node.daemons.intensity, 1.0);
}

TEST(Cluster, SterileNodeHasNoDaemons) {
  cluster::ClusterConfig cfg = cluster::presets::frost(1);
  cfg.node.install_daemons = false;
  SerialEngine serial(cfg.nodes);
  Engine& e = serial.engine;
  cluster::Cluster c(serial.sharded, cfg);
  EXPECT_EQ(c.node(0).daemons(), nullptr);
  EXPECT_EQ(c.node(0).io_service(), nullptr);
  c.start();
  e.run_until(Time::zero() + 1_s);
  EXPECT_EQ(c.node(0).kernel().accounting().of(kern::ThreadClass::Daemon)
                .count(),
            0);
}

TEST(Cluster, DeterministicAcrossRebuilds) {
  auto run = [] {
    cluster::ClusterConfig cfg = cluster::presets::frost(2);
    cfg.seed = 11;
    SerialEngine serial(cfg.nodes);
    Engine& e = serial.engine;
    cluster::Cluster c(serial.sharded, cfg);
    c.start();
    e.run_until(Time::zero() + 5_s);
    return std::pair{e.events_processed(),
                     c.node(0).kernel().accounting()
                         .of(kern::ThreadClass::Daemon).count()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}
