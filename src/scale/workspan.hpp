// Work/span analysis of a run's happens-before graph — the trace half of
// pasched-scale. Work is the total CPU-occupied time across all threads;
// span is the longest happens-before-ordered chain of that occupied time
// (program order within a thread, matched MsgSend -> MsgRecv edges across
// threads). work / span is the classic parallelism bound: no executor —
// however many workers, however clever the windows — can beat it, which
// makes it the honest "predicted max speedup" to print next to a measured
// speedup such as e2e's shard.speedup.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/hb.hpp"
#include "sim/time.hpp"

namespace pasched::scale {

struct WorkSpan {
  /// Total running time accumulated by all threads (sum of segments between
  /// consecutive events of a thread while it held a CPU).
  sim::Duration work = sim::Duration::zero();
  /// Longest happens-before chain of running time.
  sim::Duration span = sim::Duration::zero();
  /// Events that carried a thread identity (the DP's node count).
  std::size_t events = 0;
  int threads = 0;
  /// Event indices (into the HbGraph) of the critical path, source first.
  std::vector<std::size_t> critical_path;

  /// work / span — the speedup no executor can exceed on this history.
  [[nodiscard]] double predicted_max_speedup() const {
    if (span <= sim::Duration::zero()) return 1.0;
    return static_cast<double>(work.count()) /
           static_cast<double>(span.count());
  }
};

/// Runs the critical-path DP over a time-ordered happens-before graph.
/// Accepts a clock-free graph (HbGraph::build with with_clocks = false):
/// only thread indices and cross_pred edges are used. Running state is
/// tracked from Dispatch/Preempt/Block/Exit, so only CPU-occupied segments
/// contribute weight — a task spinning in MsgRecvWait accrues span (it
/// holds the CPU), a blocked task does not.
[[nodiscard]] WorkSpan work_span(const analysis::HbGraph& g);

}  // namespace pasched::scale
