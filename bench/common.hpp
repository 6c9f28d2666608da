// Shared experiment harness for the reproduction benches: configure a run of
// the aggregate_trace benchmark (or a sweep over processor counts), execute
// it, and summarize per-Allreduce timings the way the paper reports them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/coscheduler.hpp"
#include "core/simulation.hpp"
#include "kern/tunables.hpp"
#include "mpi/config.hpp"
#include "sim/time.hpp"

namespace bench {

struct RunSpec {
  int nodes = 4;
  int tasks_per_node = 16;
  int calls = 200;
  std::uint64_t seed = 1;
  pasched::kern::Tunables tunables;  // vanilla by default
  bool use_cosched = false;
  pasched::core::CoschedConfig cosched;
  pasched::mpi::MpiConfig mpi;
  double daemon_intensity = 1.0;
  /// false = sterile nodes (no daemons at all) — used to isolate a single
  /// interference source.
  bool install_daemons = true;
  /// Local time of the cron health check's first run; negative = random.
  pasched::sim::Duration cron_first_due = pasched::sim::Duration::ns(-1);
  pasched::sim::Duration inter_call_compute = pasched::sim::Duration::us(100);
  /// Max boot-time offset of node time-of-day clocks from global time.
  pasched::sim::Duration max_clock_offset = pasched::sim::Duration::ms(100);
  /// Untimed lead-in so the co-scheduler's first aligned window engages
  /// before measurement (and daemon phases randomize fairly).
  pasched::sim::Duration warmup = pasched::sim::Duration::sec(6);
  /// Opt-in: run pasched-lint's config rules over this spec before the
  /// simulation. Findings print to stderr; ERROR findings throw — a bench
  /// must not silently measure a configuration the paper calls broken.
  bool lint_before_run = false;
};

struct RunResult {
  bool completed = false;
  int procs = 0;
  double mean_us = 0;
  double median_us = 0;
  double min_us = 0;
  double max_us = 0;
  double p99_us = 0;
  double cv = 0;
  /// Fraction of calls slower than 2x the median (the outlier population).
  double outlier_frac = 0;
  /// Mean of the 20 slowest calls (tail mass beyond p99).
  double tail20_us = 0;
  double ideal_us = 0;     // analytic no-interference model
  double elapsed_s = 0;    // job wall time
  /// Per-call durations (us) observed by the recorded rank.
  std::vector<double> recorded;
};

/// Runs aggregate_trace once under the given spec.
[[nodiscard]] RunResult run_aggregate(const RunSpec& spec);

/// Runs `seeds` repetitions and returns the per-seed results.
[[nodiscard]] std::vector<RunResult> run_seeds(RunSpec spec, int seeds);

/// Mean of a field across per-seed results.
[[nodiscard]] double mean_field(const std::vector<RunResult>& rs,
                                double RunResult::* field);

/// Default processor sweep (16 tasks/node granularity).
[[nodiscard]] std::vector<int> default_proc_sweep(bool full);

/// Prints the standard bench banner.
void banner(const std::string& title, const std::string& paper_ref);

/// The current git commit (short hash, "-dirty" when tracked files differ
/// from it), or "unknown" outside a repo — every BENCH_*.json stamps it so
/// numbers are attributable to a tree state.
[[nodiscard]] std::string git_commit();

}  // namespace bench
