#include "net/fabric.hpp"

#include <algorithm>

#include "sim/shard.hpp"
#include "util/assert.hpp"

namespace pasched::net {

using sim::Duration;
using sim::Time;

Duration guaranteed_lookahead(const FabricConfig& cfg) {
  // Shrink the wire latency by the worst-case jitter draw. One nanosecond
  // of slack absorbs the double->int truncation in Rng::jittered; clamp to
  // at least 1 ns so windows always advance.
  const double floor_ns = static_cast<double>(cfg.inter_node_latency.count()) *
                          (1.0 - cfg.jitter_frac);
  const std::int64_t ns = static_cast<std::int64_t>(floor_ns) - 1;
  return Duration::ns(std::max<std::int64_t>(ns, 1));
}

namespace {
void check_config(const FabricConfig& cfg) {
  PASCHED_EXPECTS(cfg.inter_node_latency > Duration::zero());
  PASCHED_EXPECTS(cfg.intra_node_latency > Duration::zero());
  PASCHED_EXPECTS(cfg.jitter_frac >= 0.0 && cfg.jitter_frac < 1.0);
}
}  // namespace

Fabric::Fabric(sim::ShardedEngine& sharded, FabricConfig cfg, sim::Rng rng,
               int nodes)
    : sharded_(&sharded),
      cfg_(cfg),
      port_seed_base_(rng.next_u64()),
      egress_free_(static_cast<std::size_t>(nodes)),
      ingress_free_(static_cast<std::size_t>(nodes)) {
  check_config(cfg_);
  PASCHED_EXPECTS(nodes >= 1);
  PASCHED_EXPECTS_MSG(
      cfg_.link_bandwidth == 0.0 || sharded.partitions() == 1,
      "link_bandwidth contention serializes senders cluster-wide and cannot "
      "run partitioned");
  ports_.resize(static_cast<std::size_t>(nodes));
}

Fabric::Port& Fabric::port(kern::NodeId src) {
  PASCHED_EXPECTS(src >= 0 && static_cast<std::size_t>(src) < ports_.size());
  auto& slot = ports_[static_cast<std::size_t>(src)];
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
  const Duration base =
      src == dst ? cfg_.intra_node_latency : cfg_.inter_node_latency;
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
  PASCHED_EXPECTS(dst >= 0 && static_cast<std::size_t>(dst) < ports_.size());
  ++p.stats.messages;
  p.stats.bytes += bytes;
  if (src == dst) ++p.stats.intra_node;
  Duration lat = latency_for(src, dst, bytes);
  if (cfg_.jitter_frac > 0.0) lat = p.rng.jittered(lat, cfg_.jitter_frac);
  const int src_shard = sharded_->shard_of_node(src);
  const int dst_shard = sharded_->shard_of_node(dst);
  Time depart = sharded_->engine_of(src_shard).now();
  if (cfg_.link_bandwidth > 0.0 && src != dst) {
    // Serialize on the sender's egress link, then occupy the receiver's
    // ingress link: a burst of messages into one node queues up.
    // (Single-shard only — the constructor rejects this when partitioned.)
    const Duration xfer = Duration::from_seconds(
        static_cast<double>(std::max<std::size_t>(bytes, 1)) /
        cfg_.link_bandwidth);
    Time& efree = egress_free_[static_cast<std::size_t>(src)];
    depart = std::max(depart, efree);
    efree = depart + xfer;
    Time& ifree = ingress_free_[static_cast<std::size_t>(dst)];
    const Time arrive_start = std::max(depart + lat - xfer, ifree);
    ifree = arrive_start + xfer;
    depart = arrive_start + xfer - lat;  // so deliver_at lands after ingress
  }
  Time deliver_at = depart + lat;
  const auto it = std::find_if(
      p.last_delivery.begin(), p.last_delivery.end(),
      [dst](const auto& w) { return w.first == dst; });
  if (it == p.last_delivery.end()) {
    p.last_delivery.emplace_back(dst, deliver_at);
  } else {
    if (deliver_at <= it->second)
      deliver_at = it->second + Duration::ns(1);  // FIFO per pair
    it->second = deliver_at;
  }
  sharded_->post(src_shard, dst_shard, deliver_at, std::move(on_deliver));
}

}  // namespace pasched::net
