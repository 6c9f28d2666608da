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
#include "scale/windows.hpp"
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
  /// 0 = classic single event queue; N >= 1 = partitioned execution with N
  /// worker threads (see SimulationConfig::parallel).
  int parallel = 0;
  /// Arms the pasched-race seam monitor + ownership sink on a partitioned
  /// run (requires parallel >= 1). micro_shard uses it to price the
  /// full-audit mode against the bare annotation layer.
  bool audit = false;
  /// Arms the pasched-scale window profiler + lookahead certifier (requires
  /// parallel >= 1; mutually exclusive with `audit` — one monitor slot).
  /// micro_shard runs one profiled pass to predict the speedup ceiling it
  /// prints next to the measured speedup.
  bool profile_scale = false;
  /// Arms the contention ledger on the engine's seam
  /// mutexes/barrier (requires parallel >= 1). Uses the process-global seam
  /// observer, not the shard-monitor slot, so it composes with the two
  /// monitors above. Only measures under -DPASCHED_VALIDATE=ON — release
  /// seams never notify (RunResult::ledger_enabled records which).
  bool ledger = false;
};

/// One row of the contention ledger's ranking (see contend::SiteSummary).
struct LedgerSiteRow {
  std::string site;
  std::uint64_t acquires = 0;
  double wait_ms = 0;
  double wait_share = 0;  // of total recorded wait across all sites
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
  std::uint64_t events = 0;
  /// Events fired strictly before job completion — mode-invariant (the raw
  /// `events` counter legitimately differs: partitioned runs drain their
  /// final lookahead window past the completing event).
  std::uint64_t events_at_completion = 0;
  /// Ownership/race findings collected when RunSpec::audit was set.
  std::uint64_t audit_violations = 0;
  /// Filled when RunSpec::profile_scale was set: the barrier-cost model's
  /// speedup prediction at 8 workers over the profiled windows, and any
  /// cross-shard deliveries that undercut the static lookahead certificate
  /// (must be 0 — a nonzero count means the certificate is unsound).
  double predicted_max_speedup = 0;
  std::uint64_t lookahead_violations = 0;
  /// The profiled window stats themselves (profile_scale runs): lets a
  /// bench re-price the model with measured constants (event cost from its
  /// own serial row, barrier cost from the ledger) instead of defaults.
  pasched::scale::WindowStats windows;
  /// Planner execution counters (any partitioned run): sync rounds is the
  /// n_windows figure the scale report publishes; chained/coalesced size
  /// the batching; ring counters cover the cross-shard SPSC path.
  std::uint64_t planner_rounds = 0;
  std::uint64_t planner_chained = 0;
  std::uint64_t planner_coalesced = 0;
  std::uint64_t ring_posts = 0;
  std::uint64_t ring_overflows = 0;
  /// Filled when RunSpec::ledger was set: whether the build's seams are
  /// instrumented at all, the barrier's share of all recorded seam wait,
  /// and the top serialization sites ranked by wait (at most 3).
  bool ledger_enabled = false;
  double barrier_wait_share = 0;
  std::vector<LedgerSiteRow> top_wait_sites;
  /// Measured per-round barrier cost (two crossings per sync round times
  /// the average wait per crossing); negative when nothing was recorded.
  double measured_barrier_cost_ns = -1;
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

/// The current git commit (short hash), or "unknown" outside a repo — every
/// BENCH_*.json stamps it so numbers are attributable to a tree state.
[[nodiscard]] std::string git_commit();

}  // namespace bench
