// Pluggable nondeterminism: the generic ChoiceSource interface a component
// queries for bounded decisions. ShardedEngine::set_window_choice takes one
// to perturb window quanta (the race fuzzer drives it from a recorded
// schedule); with none installed every decision takes its default.
#pragma once

#include <cstddef>

namespace pasched::sim {

/// A source of bounded nondeterministic decisions. choose(n, tag) returns a
/// value in [0, n); `tag` names the choice point (e.g.
/// "shard.window_quantum") so recorded schedules are self-describing.
class ChoiceSource {
 public:
  virtual ~ChoiceSource() = default;
  virtual std::size_t choose(std::size_t n, const char* tag) = 0;
};

}  // namespace pasched::sim
