// The paper's contribution, part 2: the external time-based co-scheduler
// (§4). One daemon per node cycles the dispatch priority of a job's tasks
// between a favored and an unfavored value over a fixed period and duty
// cycle, with window boundaries aligned to synchronized-clock period
// boundaries so every node flips at the same instant with no inter-node
// communication. CoschedManager implements the mpi::SchedulerHook control-
// pipe protocol (registration at MPI_Init, detach/attach around I/O phases)
// across the whole cluster.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "kern/kernel.hpp"
#include "mpi/hook.hpp"
#include "sim/time.hpp"

namespace pasched::core {

struct CoschedConfig {
  /// Favored/unfavored fixed priorities applied to the job's tasks.
  /// Paper settings: 30/100 for the benchmark; 41/100 with mmfsd pinned at
  /// 40 for I/O-heavy applications (the ALE3D fix).
  kern::Priority favored = 30;
  kern::Priority unfavored = 100;
  /// Scheduling window and fraction of it spent favored.
  sim::Duration period = sim::Duration::sec(5);
  double duty = 0.90;
  /// End windows on (synchronized) period boundaries, cluster-wide.
  bool align_to_period_boundary = true;
  /// Synchronize node clocks to the switch clock at startup (§4); without
  /// this, alignment is only node-local and windows drift apart.
  bool sync_clocks = true;
  /// The daemon's own (very favored) priority.
  kern::Priority self_priority = 20;
  /// CPU cost of one priority sweep: base + per-task.
  sim::Duration flip_cost_base = sim::Duration::us(20);
  sim::Duration flip_cost_per_task = sim::Duration::us(3);
  /// Latency of the pmd control pipe (registration, detach/attach).
  sim::Duration pipe_delay = sim::Duration::us(300);
  /// Priority restored to a task on detach (normal user, decaying).
  kern::Priority detached_base = kern::kNormalUserBase;
};

struct CoschedStats {
  std::uint64_t windows = 0;
  std::uint64_t flips = 0;
  std::uint64_t registered = 0;
};

/// Per-node co-scheduler daemon.
class CoScheduler final : private kern::ThreadClient {
 public:
  CoScheduler(kern::Kernel& kernel, CoschedConfig cfg);
  CoScheduler(const CoScheduler&) = delete;
  CoScheduler& operator=(const CoScheduler&) = delete;

  /// Arms the first window boundary. Called by CoschedManager. When the
  /// config disables boundary alignment, `unaligned_phase` gives this
  /// node's arbitrary window phase (real deployments inherit it from
  /// daemon start-up skew).
  void start(sim::Duration unaligned_phase = sim::Duration::zero());

  void register_task(kern::Thread& t);
  void detach(kern::Thread& t);
  void attach(kern::Thread& t);
  void shutdown();

  [[nodiscard]] const CoschedStats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] bool in_favored_phase() const noexcept { return favored_now_; }

 private:
  enum class Action : std::uint8_t { None, ToFavored, ToUnfavored };

  kern::RunDecision next(sim::Time now) override;
  void on_timer(Action a);
  void apply(Action a);
  void apply_phase_to(kern::Thread& t);
  void arm(Action a, sim::Time due_local);

  kern::Kernel& kernel_;
  CoschedConfig cfg_;
  kern::Thread* thread_ = nullptr;
  std::vector<kern::Thread*> tasks_;
  sim::Time window_start_local_{};
  bool favored_now_ = false;
  Action pending_ = Action::None;
  bool burst_issued_ = false;
  bool shutdown_ = false;
  bool started_ = false;
  CoschedStats stats_;
};

/// Cluster-wide manager: owns one CoScheduler per node that hosts tasks and
/// adapts the MPI runtime's control-pipe protocol.
class CoschedManager final : public mpi::SchedulerHook {
 public:
  CoschedManager(cluster::Cluster& cluster, CoschedConfig cfg);

  /// Creates the node's co-scheduler and draws its window phase from the
  /// cluster-wide phase stream.
  void prepare_node(kern::NodeId node) override { (void)created(node); }
  /// Starts the node's co-scheduler (arms its first window).
  void start_node(kern::NodeId node) override { (void)node_cosched(node); }
  void register_task(kern::NodeId node, kern::Thread& t) override;
  void detach_task(kern::NodeId node, kern::Thread& t) override;
  void attach_task(kern::NodeId node, kern::Thread& t) override;
  void job_ended() override;

  [[nodiscard]] CoschedStats total_stats() const;
  [[nodiscard]] const CoschedConfig& config() const noexcept { return cfg_; }
  /// Worst residual clock offset after startup sync (zero when sync off).
  [[nodiscard]] sim::Duration sync_residual() const noexcept {
    return sync_residual_;
  }

 private:
  /// The node's co-scheduler, created (with its phase drawn) if needed.
  CoScheduler& created(kern::NodeId node);
  /// The node's co-scheduler, created and started if needed.
  CoScheduler& node_cosched(kern::NodeId node);

  cluster::Cluster& cluster_;
  CoschedConfig cfg_;
  std::vector<std::unique_ptr<CoScheduler>> per_node_;
  std::vector<sim::Duration> phase_;  // [node], drawn at creation
  sim::Duration sync_residual_ = sim::Duration::zero();
  sim::Rng phase_rng_;
};

}  // namespace pasched::core
