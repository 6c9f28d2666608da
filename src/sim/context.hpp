// The partition seam between event producers and the engine(s) executing
// them. A Router owns the mapping node -> shard and the cross-shard posting
// rule; an EventContext is the per-node handle components schedule through.
//
// sim::ShardedEngine (sim/shard.hpp) is the router of every cluster run: it
// gives every block of nodes (sim::ShardMap) its own engine + clock with
// conservative-window parallel execution, and a serial run is its one-shard
// case. Kernel, daemons, and the co-scheduler only ever touch their node's
// EventContext, so they are partition-agnostic by construction; the fabric
// and the MPI job are the only components that cross shards, and they do it
// exclusively through Router::post().
#pragma once

#include <utility>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace pasched::sim {

/// Partition-aware event routing. `shard_of_node` maps a cluster node to the
/// shard that owns its events; `hub_shard` owns cluster-global state (the
/// switch's hardware-collective combine unit). `post` delivers a callback
/// into another shard's timeline; for cross-shard posts `t` must be at least
/// `lookahead()` past the source shard's clock — the conservative guarantee
/// the parallel executor synchronizes on.
class Router {
 public:
  virtual ~Router() = default;
  [[nodiscard]] virtual int partitions() const noexcept = 0;
  [[nodiscard]] virtual int shard_of_node(int node) const noexcept = 0;
  [[nodiscard]] virtual int hub_shard() const noexcept = 0;
  [[nodiscard]] virtual Duration lookahead() const noexcept = 0;
  [[nodiscard]] virtual Engine& engine_of(int shard) = 0;
  virtual void post(int src_shard, int dst_shard, Time t,
                    Engine::Callback fn) = 0;
  /// Runs `fn` once no shard is mid-event: immediately with one shard, at
  /// a later round barrier with several. Job-completion bookkeeping
  /// (hook shutdown, aux-thread cancellation) goes through here so it may
  /// safely touch every node.
  virtual void request_wrapup(Engine::Callback fn) = 0;
  /// Requests that execution stop at the next safe point.
  virtual void stop_all() = 0;
};

/// A node's scheduling handle: the engine that owns its events, plus the
/// router and this node's shard id for the rare cross-node operations.
/// Implicitly convertible from a bare Engine& so kernel-level construction
/// (kernel tests) needs no router.
struct EventContext {
  Engine* engine = nullptr;
  Router* router = nullptr;
  int shard = 0;

  // NOLINTNEXTLINE(google-explicit-constructor): deliberate — a bare engine
  // is a complete single-shard context.
  EventContext(Engine& e) : engine(&e) {}
  EventContext(Engine& e, Router& r, int s) : engine(&e), router(&r), shard(s) {}

  [[nodiscard]] Time now() const { return engine->now(); }
  EventId schedule_at(Time t, Engine::Callback fn) const {
    return engine->schedule_at(t, std::move(fn));
  }
  EventId schedule_after(Duration d, Engine::Callback fn) const {
    return engine->schedule_after(d, std::move(fn));
  }
  void cancel(EventId id) const { engine->cancel(id); }
  [[nodiscard]] bool pending(EventId id) const { return engine->pending(id); }
};

}  // namespace pasched::sim
