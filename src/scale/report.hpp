// The pasched-scale report: everything the static lookahead oracle, the
// runtime soundness certifier, the work/span pass, and the window profiler
// learned about one scenario, plus the PSL301–306 rules that turn the
// numbers into findings. Rule IDs, severities, and paper references live in
// analysis/diagnostic.hpp; DESIGN.md §5.6 renders the same table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "scale/lookahead.hpp"
#include "scale/windows.hpp"
#include "scale/workspan.hpp"
#include "sim/planner.hpp"
#include "sim/time.hpp"

namespace pasched::scale {

struct ScaleOptions {
  /// Worker count the speedup prediction targets (ROADMAP item 1: 8).
  int target_workers = 8;
  /// Speedup the roadmap demands at target_workers (ROADMAP item 1: >= 4x).
  double target_speedup = 4.0;
  /// PSL301/PSL014 fire when global * collapse_ratio <= pairwise median.
  double collapse_ratio = 2.0;
  /// PSL304 fires when max/mean per-shard load exceeds this.
  double imbalance_threshold = 1.5;
  /// PSL305 fires when the hub's share of per-window critical work exceeds
  /// this.
  double hub_share_threshold = 0.25;
  SpeedupModel model;
};

struct ScaleReport {
  std::string scenario;
  ScaleOptions options;

  // Static half.
  LookaheadMatrix matrix;

  // Runtime certification.
  std::uint64_t posts_checked = 0;
  std::uint64_t soundness_violations = 0;
  sim::Duration min_observed_slack = sim::Duration::max();
  std::vector<analysis::Diagnostic> soundness;  // PSL303 findings

  // Trace half.
  WorkSpan workspan;
  WindowStats windows;

  // Executor facts (ShardedEngine::planner_stats()). `rounds` is what the
  // barrier-cost model prices; `chained_windows` is how much schedule each
  // round carried under neighbor-horizon waits only.
  std::uint64_t rounds = 0;
  std::uint64_t chained_windows = 0;
  std::uint64_t coalesced_windows = 0;
  std::uint64_t ring_posts = 0;
  std::uint64_t ring_overflows = 0;

  /// Barrier cost the window model actually priced. "measured" when the
  /// analysis run could install a contention ledger (no other seam observer
  /// present, validation build): total barrier wait / crossings, times the
  /// protocol's two crossings per round. Otherwise the model default.
  double barrier_cost_ns_used = 0.0;
  std::string barrier_cost_source = "default";  // "measured" | "default"

  // Run facts.
  bool completed = false;
  sim::Duration elapsed = sim::Duration::zero();
  std::uint64_t events = 0;
  std::uint64_t events_at_completion = 0;

  /// Window-model prediction at options.target_workers, and the same with
  /// barrier cost zeroed (the pure concurrency limit of these windows).
  double predicted_speedup_window_model = 0.0;
  double predicted_speedup_no_barrier = 0.0;

  /// The overall ceiling: min(work/span, window-model at target workers).
  [[nodiscard]] double predicted_max_speedup() const;

  /// PSL301–306 findings (soundness first), rule-ID order after that.
  [[nodiscard]] std::vector<analysis::Diagnostic> diagnostics() const;
  /// Human-readable report.
  [[nodiscard]] std::string str() const;
  /// Machine-readable report (JSON), embedding the matrix certificate.
  [[nodiscard]] std::string json() const;
};

}  // namespace pasched::scale
