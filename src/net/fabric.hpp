// The cluster interconnect: a point-to-point latency/bandwidth model of the
// SP switch plus intra-node shared-memory transport. Delivery preserves FIFO
// order per (src, dst) pair, like the real adapter microcode.
//
// The fabric is one of only two cross-shard edges in partitioned execution
// (the other is the switch's hardware-collective combine unit): deliveries
// go through sim::ShardedEngine::post(), and every per-message mutable
// state — jitter
// stream, FIFO watermarks, statistics — lives in a per-source-node Port so
// sends from different shards never share state.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "kern/types.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace pasched::sim {
class ShardedEngine;
}  // namespace pasched::sim

namespace pasched::net {

struct FabricConfig {
  /// One-way wire+adapter latency between two nodes (SP switch class).
  sim::Duration inter_node_latency = sim::Duration::us(20);
  /// Shared-memory transport latency within a node.
  sim::Duration intra_node_latency = sim::Duration::us(1);
  /// Serialization cost per byte (≈500 MB/s switch link).
  sim::Duration per_byte = sim::Duration::ns(2);
  /// Multiplicative uniform jitter applied to each delivery (+/- frac).
  double jitter_frac = 0.02;
  /// Optional per-node link contention: when > 0, each node's egress and
  /// ingress serialize at this bandwidth (bytes/second), so bursts of
  /// messages into one node (e.g. a reduction root) queue behind each
  /// other. 0 = contention-free (the default latency/bandwidth model).
  /// Sequential-only: ingress serialization couples all senders to one
  /// node, which has no lookahead, so --parallel rejects it.
  double link_bandwidth = 0.0;
};

/// Minimum latency any cross-node delivery can experience under `cfg` —
/// inter_node_latency shrunk by the worst-case jitter draw (minus one
/// nanosecond of float-truncation slack). This is the guaranteed lookahead
/// the conservative parallel executor synchronizes on: a message sent at t
/// arrives no earlier than t + guaranteed_lookahead(cfg).
[[nodiscard]] sim::Duration guaranteed_lookahead(const FabricConfig& cfg);

struct FabricStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t intra_node = 0;
};

class Fabric {
 public:
  /// Deliveries cross shards via `sharded` (one shard for a serial run).
  /// `nodes` presizes the per-source ports so concurrent sends never
  /// reallocate; node ids must lie in [0, nodes).
  Fabric(sim::ShardedEngine& sharded, FabricConfig cfg, sim::Rng rng,
         int nodes);

  /// Sends `bytes` from src to dst; `on_deliver` runs at the destination's
  /// arrival time, on the destination node's shard. Deliveries between the
  /// same pair never reorder. Must be called from the source node's shard.
  void send(kern::NodeId src, kern::NodeId dst, std::size_t bytes,
            sim::Engine::Callback on_deliver);

  [[nodiscard]] sim::Duration latency_for(kern::NodeId src, kern::NodeId dst,
                                          std::size_t bytes) const;
  /// Aggregated over all source ports.
  [[nodiscard]] FabricStats stats() const;
  [[nodiscard]] const FabricConfig& config() const noexcept { return cfg_; }

 private:
  /// Per-source-node send state: everything send() mutates, so concurrent
  /// sends from different shards are isolated. Seeded as a pure function of
  /// the fabric seed and the source id — creation order does not matter.
  struct Port {
    explicit Port(std::uint64_t seed) : rng(seed) {}
    sim::Rng rng;
    FabricStats stats;
    // FIFO watermark per destination: last scheduled delivery time. A
    // flat scan, since a source talks to few destinations (at most 36 in
    // the e2e workloads); a dense per-node row would cost nodes^2 words.
    std::vector<std::pair<kern::NodeId, sim::Time>> last_delivery;
  };

  [[nodiscard]] Port& port(kern::NodeId src);

  sim::ShardedEngine* sharded_;
  FabricConfig cfg_;
  std::uint64_t port_seed_base_;
  std::vector<std::unique_ptr<Port>> ports_;
  // Link-contention state, indexed by node: the time each node's
  // egress/ingress link frees up. Ingress couples senders cluster-wide —
  // sequential mode only.
  std::vector<sim::Time> egress_free_;
  std::vector<sim::Time> ingress_free_;
};

}  // namespace pasched::net
