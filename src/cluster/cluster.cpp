#include "cluster/cluster.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pasched::cluster {

Cluster::Cluster(sim::ShardedEngine& sharded, const ClusterConfig& cfg)
    : sharded_(&sharded), cfg_(cfg), rng_(cfg.seed) {
  PASCHED_EXPECTS(cfg.nodes > 0);
  switch_clock_ = std::make_unique<net::SwitchClock>(sharded.engine_of(0));
  fabric_ = std::make_unique<net::Fabric>(sharded, cfg.fabric, rng_.fork(1),
                                          cfg.nodes);
  shard_nodes_.resize(static_cast<std::size_t>(sharded.partitions()));
  for (int i = 0; i < cfg.nodes; ++i) {
    const int shard = sharded.shard_of_node(i);
    PASCHED_EXPECTS_MSG(shard >= 0 && shard < sharded.partitions(),
                        "the sharded engine maps a node to no valid shard");
    nodes_.push_back(std::make_unique<Node>(
        sim::EventContext(sharded.engine_of(shard), shard), i,
        cfg.node, rng_.fork(100 + static_cast<std::uint64_t>(i))));
    shard_nodes_[static_cast<std::size_t>(shard)].push_back(
        nodes_.back().get());
  }
}

void Cluster::start() {
  for (auto& n : nodes_) n->start();
}

void Cluster::start_shard(int shard) {
  for (auto& n : nodes_)
    if (sharded_->shard_of_node(n->id()) == shard) n->start();
}

sim::Duration Cluster::synchronize_clocks() {
  sim::Duration worst = sim::Duration::zero();
  sim::Rng sync_rng = rng_.fork(7);
  for (auto& n : nodes_) {
    const sim::Duration residual = net::synchronize(
        n->kernel().clock(), *switch_clock_, cfg_.clock_sync, sync_rng);
    worst = std::max(worst, residual < sim::Duration::zero() ? -residual
                                                             : residual);
  }
  return worst;
}

Node& Cluster::node(kern::NodeId id) {
  PASCHED_EXPECTS(id >= 0 && id < size());
  return *nodes_[static_cast<std::size_t>(id)];
}

bool Cluster::any_node_evicted() const {
  for (const auto& n : nodes_) {
    const auto* d = const_cast<Node&>(*n).daemons();
    if (d != nullptr && d->any_evicted()) return true;
  }
  return false;
}

sim::Time Cluster::earliest_post(int shard, sim::Time floor) {
  sim::Time k = sim::Time::max();
  for (Node* n : shard_nodes_[static_cast<std::size_t>(shard)]) {
    k = std::min(k, n->kernel().earliest_post(floor));
    if (k <= floor) break;
  }
  return k;
}

namespace presets {

namespace {
ClusterConfig base(int nodes, int ncpus) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.node.ncpus = ncpus;
  return cfg;
}
}  // namespace

ClusterConfig frost(int nodes) { return base(nodes, 16); }
ClusterConfig asci_white(int nodes) { return base(nodes, 16); }
ClusterConfig blue_oak(int nodes) {
  ClusterConfig cfg = base(nodes, 16);
  // Blue Oak's background load was observed to be somewhat lighter.
  cfg.node.daemons.intensity = 0.8;
  return cfg;
}

}  // namespace presets

}  // namespace pasched::cluster
