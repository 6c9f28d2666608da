// The per-shard-pair lookahead oracle: the static half of pasched-scale.
//
// The causality argument of conservative execution is pairwise: a message
// from shard a to shard b cannot arrive earlier than the minimum latency of
// the (a, b) link. net::pair_lookahead derives that per-pair matrix from
// the fabric topology alone (no simulation); the executor's per-pair window
// planner (sim/planner.hpp) runs on it, and this module wraps the same
// matrix with the cluster shape, compares it against the single global
// bound, and emits it as a machine-readable certificate. The claims are
// only claims until certified: scale::RunMonitor re-checks every actual
// cross-shard delivery against this matrix at runtime (PSL303 on
// violation).
#pragma once

#include <string>

#include "net/fabric.hpp"
#include "sim/planner.hpp"
#include "sim/time.hpp"

namespace pasched::scale {

/// The certified per-shard-pair lookahead matrix: net::pair_lookahead's
/// bounds (the same matrix the executor installs), plus the cluster shape
/// and the summaries the report and certificate print. Shards
/// 0..nodes-1 are the node shards, shard `nodes` is the switch hub
/// (single-node clusters collapse to one shard and have no pairs). The
/// diagonal is zero — same-shard scheduling needs no lookahead.
struct LookaheadMatrix : sim::PairLookahead {
  int nodes = 0;
  int hub_shard = 0;

  [[nodiscard]] bool has_pairs() const noexcept { return shards > 1; }
  /// Min / median / max over the off-diagonal pairs.
  [[nodiscard]] sim::Duration min_pair() const;
  [[nodiscard]] sim::Duration median_pair() const;
  [[nodiscard]] sim::Duration max_pair() const;

  /// The machine-readable certificate (JSON): shard numbering, the global
  /// bound, and the full pairwise matrix in nanoseconds. This is the
  /// contract a per-pair window planner consumes; RunMonitor certifies it
  /// against actual deliveries.
  [[nodiscard]] std::string certificate_json() const;
};

/// Builds the matrix for `nodes` nodes of fabric `cfg`, statically, from
/// net::pair_lookahead.
[[nodiscard]] LookaheadMatrix build_lookahead_matrix(
    const net::FabricConfig& cfg, int nodes);

}  // namespace pasched::scale
