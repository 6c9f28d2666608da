// Per-window accounting of a partitioned run, and the barrier-cost model
// that turns it into a predicted speedup. Where work/span bounds what any
// executor could do, this model predicts what the *current* conservative-
// window executor will do: each window costs the slowest shard's events
// (or the per-worker share when shards outnumber workers), plus a fixed
// barrier crossing. Windows with a handful of events are pure overhead —
// the PSL302 "barrier-dominated" pathology that caps a run's speedup near
// 1x however many workers it has.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace pasched::scale {

/// One executed conservative window: its end time and the per-shard event
/// counts the barrier synchronized.
struct WindowSample {
  sim::Time end;
  bool final_window = false;
  std::uint64_t total = 0;
  std::uint64_t max_shard = 0;
  std::uint64_t hub = 0;
};

struct WindowStats {
  int shards = 0;
  int hub_shard = 0;
  std::vector<WindowSample> windows;
  /// Whole-run per-shard totals (indexed by shard).
  std::vector<std::uint64_t> per_shard;

  [[nodiscard]] std::size_t n_windows() const noexcept {
    return windows.size();
  }
  [[nodiscard]] std::uint64_t total_events() const noexcept;
  [[nodiscard]] double mean_events_per_window() const noexcept;
  [[nodiscard]] double median_events_per_window() const noexcept;
  /// Whole-run max/mean per-shard load ratio (>= 1; 1 = perfectly even).
  /// The PSL304 signal: the slowest shard paces every window.
  [[nodiscard]] double imbalance() const noexcept;
  /// The hub's share of the per-window critical work:
  /// sum_w hub_w / sum_w max_shard_w. The PSL305 signal — when the switch
  /// hub carries most of each window's slowest-shard load, every barrier
  /// waits on one shard no matter how many workers run.
  [[nodiscard]] double hub_critical_share() const noexcept;
};

/// Linear cost model for the conservative-window executor.
///   T_1      = total_events * event_cost
///   T_p      = sum_w max(max_shard_w, ceil(total_w / workers)) * event_cost
///              + n_windows * barrier_cost
///   speedup  = T_1 / T_p
/// The defaults are rough Linux figures (a simulator event is a heap pop +
/// callback; a std::barrier round-trip across a handful of threads costs a
/// few microseconds) — the *shape* (how many windows, how empty they are)
/// dominates the prediction, not the constants.
struct SpeedupModel {
  double event_cost_ns = 60.0;
  double barrier_cost_ns = 3000.0;

  [[nodiscard]] double predicted_speedup(const WindowStats& w,
                                         int workers) const;
};

}  // namespace pasched::scale
