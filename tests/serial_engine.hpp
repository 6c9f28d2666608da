// The serial executor for tests that assemble a cluster::Cluster or
// net::Fabric by hand: the one-shard sim::ShardedEngine that
// core::Simulation runs with parallel = 0. The test drives the shard's one
// engine directly; with a single shard the lookahead is never consulted.
#pragma once

#include "sim/shard.hpp"

namespace pasched::testutil {

struct SerialEngine {
  explicit SerialEngine(int nodes)
      : sharded(sim::ShardMap(nodes, 1), sim::Duration::us(1)) {}

  sim::ShardedEngine sharded;
  sim::Engine& engine = sharded.engine_of(0);
};

}  // namespace pasched::testutil
