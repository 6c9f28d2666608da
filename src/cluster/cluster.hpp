// The whole machine: nodes + switch fabric + globally synchronized switch
// clock, with presets for the systems the paper measured on.
#pragma once

#include <memory>
#include <vector>

#include "cluster/node.hpp"
#include "net/clock_sync.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"

namespace pasched::cluster {

struct ClusterConfig {
  int nodes = 4;
  NodeConfig node;
  net::FabricConfig fabric;
  net::ClockSyncConfig clock_sync;
  std::uint64_t seed = 1;
};

class Cluster {
 public:
  /// `sharded` (one shard for a serial run) assigns each node an engine
  /// shard through its node -> shard map (every node must map to a valid
  /// shard); the fabric posts deliveries across shards through it.
  Cluster(sim::ShardedEngine& sharded, const ClusterConfig& cfg);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Arms every node. Call once before running the engine.
  void start();

  /// Synchronizes every node's local clock to the switch clock (what the
  /// co-scheduler startup does on each node, §4). Returns the worst
  /// remaining |offset|.
  sim::Duration synchronize_clocks();

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] Node& node(kern::NodeId id);
  [[nodiscard]] net::Fabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] const net::SwitchClock& switch_clock() const noexcept {
    return *switch_clock_;
  }
  /// Shard 0's engine: node 0's block, and the only engine of a one-shard
  /// run (all shard clocks agree outside windows).
  [[nodiscard]] sim::Engine& engine() noexcept {
    return sharded_->engine_of(0);
  }
  [[nodiscard]] sim::ShardedEngine& sharded() noexcept { return *sharded_; }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return cfg_; }

  /// True if any node's deadline-bearing daemon exceeded its tolerance.
  [[nodiscard]] bool any_node_evicted() const;

  /// K_s for the partitioned engine's earliest-output time: the minimum of
  /// kern::Kernel::earliest_post over the nodes `shard` owns. Stops at
  /// `floor` like the kernel bound (sim::ShardedEngine::OutputBound).
  [[nodiscard]] sim::Time earliest_post(int shard, sim::Time floor);

 private:
  sim::ShardedEngine* sharded_;
  ClusterConfig cfg_;
  std::unique_ptr<net::SwitchClock> switch_clock_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::vector<Node*>> shard_nodes_;  ///< shard -> its nodes
  sim::Rng rng_;
};

namespace presets {
/// 'Frost' at LLNL: 68 nodes of 16-way 375 MHz Power3.
[[nodiscard]] ClusterConfig frost(int nodes = 68);
/// 'ASCI White' at LLNL: 512 nodes of 16-way Power3.
[[nodiscard]] ClusterConfig asci_white(int nodes = 512);
/// 'Blue Oak' at AWE: 120 Nighthawk-II compute nodes.
[[nodiscard]] ClusterConfig blue_oak(int nodes = 120);
}  // namespace presets

}  // namespace pasched::cluster
