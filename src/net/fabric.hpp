// The cluster interconnect: a point-to-point latency/bandwidth model of the
// SP switch plus intra-node shared-memory transport. Delivery preserves FIFO
// order per (src, dst) pair, like the real adapter microcode.
//
// The fabric is one of only two cross-shard edges in partitioned execution
// (the other is the switch's hardware-collective hub): deliveries go through
// sim::Router::post(), and every per-message mutable state — jitter stream,
// FIFO watermarks, statistics — lives in a per-source-node Port so sends
// from different shards never share state.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kern/types.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/planner.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

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
  /// Optional SP frame topology: when > 0, nodes are grouped into frames of
  /// this many nodes, and a delivery whose endpoints sit in different
  /// frames pays `inter_frame_extra` on top of inter_node_latency (the
  /// intermediate-switch-board hop of a multi-frame SP system). 0 keeps the
  /// flat single-switch fabric — the default, and what every shipped preset
  /// uses. The per-shard-pair lookahead matrix (src/scale/) turns this
  /// structure into pairwise bounds; the single global guaranteed_lookahead
  /// stays pinned to the intra-frame minimum.
  int frame_size = 0;
  sim::Duration inter_frame_extra = sim::Duration::zero();

  /// The frame a node belongs to (node order is frame-major); nodes share a
  /// frame exactly when frame_of is equal. Flat fabric = one frame.
  [[nodiscard]] int frame_of(int node) const noexcept {
    return frame_size > 0 ? node / frame_size : 0;
  }
};

/// Minimum latency any cross-node delivery can experience under `cfg` —
/// inter_node_latency shrunk by the worst-case jitter draw (minus one
/// nanosecond of float-truncation slack). This is the guaranteed lookahead
/// the conservative parallel executor synchronizes on: a message sent at t
/// arrives no earlier than t + guaranteed_lookahead(cfg).
[[nodiscard]] sim::Duration guaranteed_lookahead(const FabricConfig& cfg);

/// Minimum pre-jitter wire latency of a delivery between two *distinct*
/// nodes under `cfg` (per-byte serialization excluded — a zero-byte message
/// is the worst case). With a frame topology this is inter_node_latency
/// plus the inter-frame hop when the nodes' frames differ.
[[nodiscard]] sim::Duration min_latency_between(const FabricConfig& cfg,
                                                int a, int b);

/// Per-pair guaranteed lookahead: min_latency_between shrunk by the same
/// worst-case jitter draw (and truncation slack) as guaranteed_lookahead.
/// Always >= guaranteed_lookahead(cfg) — the global bound is the matrix
/// minimum, which is exactly the headroom the per-pair certificate
/// (src/scale/lookahead.hpp) quantifies.
[[nodiscard]] sim::Duration guaranteed_lookahead_between(
    const FabricConfig& cfg, int a, int b);

/// The per-shard-pair guaranteed-lookahead matrix of `nodes` nodes under
/// `cfg`, in sim::ShardedEngine's shard numbering: shards 0..nodes-1 are
/// the nodes, and multi-node clusters add the switch hub as shard `nodes`
/// (a single node is one shard with no pairs). Node pairs get
/// guaranteed_lookahead_between; pairs involving the hub get the global
/// floor, since hub traffic (hardware-collective contributions and
/// broadcasts) always pays at least one un-jittered inter-node wire. The
/// one construction rule: core::Simulation installs this matrix in the
/// executor and scale::build_lookahead_matrix certifies the same one.
[[nodiscard]] sim::PairLookahead pair_lookahead(const FabricConfig& cfg,
                                                int nodes);

struct FabricStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t intra_node = 0;
};

class Fabric {
 public:
  /// Classic single-engine mode (owns an internal SingleRouter).
  // srclint-ok(PSL401): legacy bridge — the engine is wrapped into an owned
  // SingleRouter immediately and never retained raw.
  Fabric(sim::Engine& engine, FabricConfig cfg, sim::Rng rng);
  /// Partitioned mode: deliveries cross shards via `router`. `nodes`
  /// presizes the per-source ports so concurrent sends never reallocate.
  Fabric(sim::Router& router, FabricConfig cfg, sim::Rng rng, int nodes);

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
    // FIFO watermark per destination: last scheduled delivery time.
    std::unordered_map<std::uint32_t, sim::Time> last_delivery;
  };

  [[nodiscard]] Port& port(kern::NodeId src);

  std::unique_ptr<sim::SingleRouter> owned_router_;  // classic mode only
  sim::Router* router_;
  FabricConfig cfg_;
  std::uint64_t port_seed_base_;
  std::vector<std::unique_ptr<Port>> ports_;
  // Link-contention state: the time each node's egress/ingress link frees
  // up. Ingress couples senders cluster-wide — sequential mode only.
  std::unordered_map<std::uint32_t, sim::Time> egress_free_;
  std::unordered_map<std::uint32_t, sim::Time> ingress_free_;
};

}  // namespace pasched::net
