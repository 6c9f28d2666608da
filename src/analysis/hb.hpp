// Happens-before over an event slice, the classical way: one vector-clock
// entry per thread, advanced along program order and joined across matched
// MsgSend -> MsgRecv pairs (matching is FIFO per msg_id, mirroring
// mpi::Task's per-(src,tag) message queues). Memory is O(events * threads),
// which is why analyzers run on EventLog::slice() windows rather than whole
// runs.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/events.hpp"

namespace pasched::analysis {

class HbGraph {
 public:
  /// Builds clocks for a time-ordered event slice. Unmatched receives (the
  /// send fell outside the slice) get no cross-thread edge; events that
  /// carry no thread identity (Idle) get no clock at all.
  [[nodiscard]] static HbGraph build(std::vector<trace::Event> events);

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] const trace::Event& event(std::size_t i) const {
    return events_[i];
  }
  [[nodiscard]] const std::vector<trace::Event>& events() const noexcept {
    return events_;
  }

  /// Number of distinct (node, tid) identities seen.
  [[nodiscard]] int num_threads() const noexcept { return num_threads_; }
  /// Dense thread index of an event, or -1 when it carries no thread.
  [[nodiscard]] int thread_of(std::size_t i) const { return thread_of_[i]; }

  /// a happened-before b (strict: false when a == b).
  [[nodiscard]] bool happens_before(std::size_t a, std::size_t b) const;
  /// Neither ordered before the other (and both carry threads).
  [[nodiscard]] bool concurrent(std::size_t a, std::size_t b) const;

  /// The event's full vector clock (empty for thread-less events).
  [[nodiscard]] const std::vector<std::uint32_t>& clock(std::size_t i) const {
    return clocks_[i];
  }

 private:
  std::vector<trace::Event> events_;
  std::vector<int> thread_of_;
  std::vector<std::vector<std::uint32_t>> clocks_;
  int num_threads_ = 0;
};

}  // namespace pasched::analysis
