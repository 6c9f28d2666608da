#include "net/fabric.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pasched::net {

using sim::Duration;
using sim::Time;

namespace {
// Shrinks a pre-jitter latency floor by the worst-case jitter draw. One
// nanosecond of slack absorbs the double->int truncation in Rng::jittered;
// clamp to at least 1 ns so windows always advance.
Duration jitter_floor(Duration latency, double jitter_frac) {
  const double floor_ns =
      static_cast<double>(latency.count()) * (1.0 - jitter_frac);
  const std::int64_t ns = static_cast<std::int64_t>(floor_ns) - 1;
  return Duration::ns(std::max<std::int64_t>(ns, 1));
}
}  // namespace

Duration guaranteed_lookahead(const FabricConfig& cfg) {
  return jitter_floor(cfg.inter_node_latency, cfg.jitter_frac);
}

Duration min_latency_between(const FabricConfig& cfg, int a, int b) {
  Duration base = cfg.inter_node_latency;
  if (a != b && cfg.frame_size > 0 && cfg.frame_of(a) != cfg.frame_of(b))
    base += cfg.inter_frame_extra;
  return base;
}

Duration guaranteed_lookahead_between(const FabricConfig& cfg, int a, int b) {
  return jitter_floor(min_latency_between(cfg, a, b), cfg.jitter_frac);
}

sim::PairLookahead pair_lookahead(const FabricConfig& cfg, int nodes) {
  PASCHED_EXPECTS(nodes >= 1);
  const int shards = nodes > 1 ? nodes + 1 : 1;
  sim::PairLookahead la =
      sim::PairLookahead::uniform(shards, guaranteed_lookahead(cfg));
  // Node-node pairs get the topology-aware per-link bound; hub pairs keep
  // the uniform global floor.
  for (int a = 0; a < nodes; ++a)
    for (int b = 0; b < nodes; ++b)
      if (a != b) la.set(a, b, guaranteed_lookahead_between(cfg, a, b));
  return la;
}

namespace {
void check_config(const FabricConfig& cfg) {
  PASCHED_EXPECTS(cfg.inter_node_latency > Duration::zero());
  PASCHED_EXPECTS(cfg.intra_node_latency > Duration::zero());
  PASCHED_EXPECTS(cfg.jitter_frac >= 0.0 && cfg.jitter_frac < 1.0);
  PASCHED_EXPECTS(cfg.frame_size >= 0);
  PASCHED_EXPECTS_MSG(cfg.inter_frame_extra >= Duration::zero(),
                      "a negative inter-frame hop would put cross-frame "
                      "latency below the global lookahead floor");
}
}  // namespace

// srclint-ok(PSL401): legacy bridge — wrapped into SingleRouter on entry.
Fabric::Fabric(sim::Engine& engine, FabricConfig cfg, sim::Rng rng)
    : owned_router_(std::make_unique<sim::SingleRouter>(engine)),
      router_(owned_router_.get()),
      cfg_(cfg),
      port_seed_base_(rng.next_u64()) {
  check_config(cfg_);
}

Fabric::Fabric(sim::Router& router, FabricConfig cfg, sim::Rng rng, int nodes)
    : router_(&router), cfg_(cfg), port_seed_base_(rng.next_u64()) {
  check_config(cfg_);
  PASCHED_EXPECTS(nodes >= 1);
  PASCHED_EXPECTS_MSG(
      cfg_.link_bandwidth == 0.0 || router.partitions() == 1,
      "link_bandwidth contention serializes senders cluster-wide and cannot "
      "run partitioned");
  ports_.resize(static_cast<std::size_t>(nodes));
}

Fabric::Port& Fabric::port(kern::NodeId src) {
  const auto idx = static_cast<std::size_t>(src);
  // Growth only happens in single-shard use (tests hand-build fabrics);
  // partitioned construction presizes the vector.
  if (idx >= ports_.size()) ports_.resize(idx + 1);
  auto& slot = ports_[idx];
  if (!slot) {
    // Order-independent seeding: a pure function of the fabric seed and the
    // source id, so which shard first sends does not change any stream.
    slot = std::make_unique<Port>(
        port_seed_base_ +
        0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(src) + 1));
  }
  return *slot;
}

Duration Fabric::latency_for(kern::NodeId src, kern::NodeId dst,
                             std::size_t bytes) const {
  const Duration base = src == dst ? cfg_.intra_node_latency
                                   : min_latency_between(cfg_, src, dst);
  return base + cfg_.per_byte * static_cast<std::int64_t>(bytes);
}

FabricStats Fabric::stats() const {
  FabricStats total;
  for (const auto& p : ports_) {
    if (!p) continue;
    total.messages += p->stats.messages;
    total.bytes += p->stats.bytes;
    total.intra_node += p->stats.intra_node;
  }
  return total;
}

void Fabric::send(kern::NodeId src, kern::NodeId dst, std::size_t bytes,
                  sim::Engine::Callback on_deliver) {
  Port& p = port(src);
  ++p.stats.messages;
  p.stats.bytes += bytes;
  if (src == dst) ++p.stats.intra_node;
  Duration lat = latency_for(src, dst, bytes);
  if (cfg_.jitter_frac > 0.0) lat = p.rng.jittered(lat, cfg_.jitter_frac);
  const int src_shard = router_->shard_of_node(src);
  const int dst_shard = router_->shard_of_node(dst);
  Time depart = router_->engine_of(src_shard).now();
  if (cfg_.link_bandwidth > 0.0 && src != dst) {
    // Serialize on the sender's egress link, then occupy the receiver's
    // ingress link: a burst of messages into one node queues up.
    // (Single-shard only — the constructor rejects this when partitioned.)
    const Duration xfer = Duration::from_seconds(
        static_cast<double>(std::max<std::size_t>(bytes, 1)) /
        cfg_.link_bandwidth);
    Time& efree = egress_free_[static_cast<std::uint32_t>(src)];
    depart = std::max(depart, efree);
    efree = depart + xfer;
    Time& ifree = ingress_free_[static_cast<std::uint32_t>(dst)];
    const Time arrive_start = std::max(depart + lat - xfer, ifree);
    ifree = arrive_start + xfer;
    depart = arrive_start + xfer - lat;  // so deliver_at lands after ingress
  }
  Time deliver_at = depart + lat;
  const auto it = p.last_delivery.find(static_cast<std::uint32_t>(dst));
  if (it != p.last_delivery.end() && deliver_at <= it->second)
    deliver_at = it->second + Duration::ns(1);  // FIFO per pair
  p.last_delivery[static_cast<std::uint32_t>(dst)] = deliver_at;
  router_->post(src_shard, dst_shard, deliver_at, std::move(on_deliver));
}

}  // namespace pasched::net
