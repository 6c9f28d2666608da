// The node -> shard map of the partitioned core.
//
// Nodes are grouped into `k` contiguous, near-equal blocks (node n goes to
// block n * k / nodes) and each block is one event shard. A post between
// two nodes of one block is an ordinary schedule_at on the block's engine,
// so the per-window costs of the executor (drains, horizon publishes, clock
// advances) scale with the block count instead of the node count.
//
// The map depends only on the node count, never on the worker count, which
// is what keeps --parallel=1 and --parallel=N bit-identical by construction:
// the worker count only decides which thread runs which block.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/assert.hpp"

namespace pasched::sim {

/// Node blocks (and so shards) of a partitioned run. Fewer
/// blocks mean fewer shard-windows per chained window; more blocks mean
/// finer load balance across workers (DESIGN.md §7 records the sweep).
inline constexpr int kShardBlocks = 8;

class ShardMap {
 public:
  /// `nodes` nodes in min(nodes, blocks) contiguous blocks.
  explicit ShardMap(int nodes, int blocks = kShardBlocks)
      : nodes_(nodes), blocks_(std::min(nodes, blocks)) {
    PASCHED_EXPECTS(nodes >= 1);
    PASCHED_EXPECTS(blocks >= 1);
  }
  /// One block per node: the layout the planner's per-node tests build on.
  [[nodiscard]] static ShardMap identity(int nodes) {
    return ShardMap(nodes, nodes);
  }

  [[nodiscard]] int nodes() const noexcept { return nodes_; }
  /// One shard per block. ShardMap(nodes, 1) is the serial executor's map.
  [[nodiscard]] int shards() const noexcept { return blocks_; }

  [[nodiscard]] int shard_of(int node) const noexcept {
    return static_cast<int>(static_cast<std::int64_t>(node) * blocks_ /
                            nodes_);
  }
  /// First node of `block`; block b holds [first_node(b), first_node(b + 1)).
  /// first_node(shards()) == nodes().
  [[nodiscard]] int first_node(int block) const noexcept {
    return static_cast<int>(
        (static_cast<std::int64_t>(block) * nodes_ + blocks_ - 1) / blocks_);
  }

 private:
  int nodes_;
  int blocks_;
};

}  // namespace pasched::sim
