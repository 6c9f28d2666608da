// Periodic system-daemon model. Each daemon owns one or more kernel threads
// that wake on timer callouts (so activations batch to tick boundaries,
// which is what makes the "big tick" change effective), run a stochastic
// CPU burst at a fixed favored priority, and block again.
//
// Two behaviours matter for fidelity to §3.1.3:
//  * accumulation — workload daemons (syncd, GPFS flushers, ...) that are
//    denied CPU do not lose their work; it piles up and the next burst is
//    proportionally longer (capped). This is why co-scheduling conserves
//    daemon work while still helping the parallel job.
//  * cold-start page faults — a daemon that has not run for a while takes
//    extra faults, inflating its burst (§5.3 observes exactly this).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kern/kernel.hpp"
#include "sim/random.hpp"

namespace pasched::daemons {

struct DaemonSpec {
  std::string name;
  kern::Priority priority = 60;
  /// Mean activation period.
  sim::Duration period = sim::Duration::sec(60);
  /// Uniform jitter fraction applied to each period.
  double period_jitter = 0.10;
  /// Median CPU demand per activation (total across workers); lognormal.
  sim::Duration burst_median = sim::Duration::ms(1);
  double burst_sigma = 0.30;
  /// Number of worker threads (cron's Perl + utility children).
  int workers = 1;
  /// Missed/denied activations accumulate into a longer burst (capped).
  bool accumulates = true;
  double accumulation_cap = 3.0;
  /// Extra runtime fraction when the daemon has been idle long enough for
  /// its pages to be evicted.
  double cold_fault_factor = 0.35;
  sim::Duration cold_threshold = sim::Duration::sec(30);
  /// Completion deadline measured from the scheduled activation time;
  /// zero = no deadline (used for hatsd heartbeats).
  sim::Duration deadline = sim::Duration::zero();
  /// First activation offset (local time); negative = randomized phase.
  sim::Duration first_due = sim::Duration::ns(-1);
};

struct DaemonStats {
  std::uint64_t activations = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t max_consecutive_misses = 0;
  sim::Duration total_burst = sim::Duration::zero();
  sim::Duration max_completion_delay = sim::Duration::zero();
};

class Daemon {
 public:
  /// Worker threads are homed round-robin starting at `first_cpu`.
  Daemon(kern::Kernel& kernel, DaemonSpec spec, sim::Rng rng,
         kern::CpuId first_cpu);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Schedules the first activation. Call once, before the engine runs.
  void start();

  [[nodiscard]] const DaemonSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const DaemonStats& stats() const noexcept { return stats_; }
  /// True if consecutive deadline misses exceeded the tolerance, or a
  /// pending activation is overdue by more than (tolerance+1) deadlines —
  /// the "membership daemon timed out, node must be rebooted" failure of §4.
  [[nodiscard]] bool evicted(std::uint64_t tolerance = 5) const noexcept;
  /// Longest overdue-ness of a still-unfinished activation (deadline-bearing
  /// daemons only).
  [[nodiscard]] sim::Duration worst_pending_delay() const;
  /// Long-run average CPU demand as a fraction of one CPU.
  [[nodiscard]] double duty_fraction() const noexcept;

 private:
  struct Worker final : kern::ThreadClient {
    Daemon* parent = nullptr;
    int index = 0;
    kern::Thread* thread = nullptr;
    bool burst_issued = false;
    bool pending = false;  // activated but not yet completed
    sim::Duration current_burst = sim::Duration::zero();
    sim::Time due_at{};  // scheduled (local) activation time
    kern::RunDecision next(sim::Time now) override;
  };

  void schedule_activation(Worker& w, sim::Time due_local);
  void activate(Worker& w);
  void on_worker_done(Worker& w, sim::Time now);
  [[nodiscard]] sim::Duration draw_burst(const Worker& w, sim::Time now_local);

  kern::Kernel& kernel_;
  DaemonSpec spec_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Worker>> workers_;
  DaemonStats stats_;
  std::uint64_t consecutive_misses_ = 0;
  sim::Time last_completion_local_{};
  bool ever_ran_ = false;
};

}  // namespace pasched::daemons
