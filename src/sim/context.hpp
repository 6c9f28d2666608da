// EventContext: the per-node handle components schedule through — the
// engine that owns the node's events plus its shard id.
//
// sim::ShardedEngine (sim/shard.hpp) executes every cluster run: it gives
// every block of nodes (sim::ShardMap) its own engine + clock with
// conservative-window parallel execution, and a serial run is its one-shard
// case. Kernel, daemons, and the co-scheduler only ever touch their node's
// EventContext, so they are partition-agnostic by construction; the fabric
// and the MPI job are the only components that cross shards, and they do it
// exclusively through ShardedEngine::post().
#pragma once

#include <utility>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace pasched::sim {

/// A node's scheduling handle: the engine that owns its events, plus this
/// node's shard id. Implicitly convertible from a bare Engine& so
/// kernel-level construction (kernel tests) needs no sharded engine.
struct EventContext {
  Engine* engine = nullptr;
  int shard = 0;

  // NOLINTNEXTLINE(google-explicit-constructor): deliberate — a bare engine
  // is a complete single-shard context.
  EventContext(Engine& e) : engine(&e) {}
  EventContext(Engine& e, int s) : engine(&e), shard(s) {}

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
