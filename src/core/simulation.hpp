// One-call experiment runner: builds executor + cluster + job (+ optional
// co-scheduler), runs to completion, and exposes results. This is the
// public API most examples and every bench go through.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cluster/cluster.hpp"
#include "core/admin.hpp"
#include "core/coscheduler.hpp"
#include "mpi/job.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"

namespace pasched::core {

struct SimulationConfig {
  cluster::ClusterConfig cluster;
  mpi::JobConfig job;
  /// Engage the co-scheduler (with `cosched` parameters) for this job.
  bool use_coscheduler = false;
  CoschedConfig cosched;

  /// §4's administrative flow: when `mp_priority` is non-empty (the user set
  /// MP_PRIORITY=<class>), the /etc/poe.priority records in `admin` decide
  /// admission. On a match, co-scheduling is engaged with the record's
  /// priorities/period/duty (overriding `use_coscheduler`/`cosched` values);
  /// on a mismatch an attention message is printed and the job runs
  /// unscheduled, exactly as the paper describes.
  std::string mp_priority;
  int uid = 1000;
  std::optional<AdminFile> admin;
  /// Hard wall on simulated time (guards against configuration deadlocks
  /// and total daemon starvation).
  sim::Duration horizon = sim::Duration::sec(3600);

  /// Execution mode. 0 = serial: one sim::ShardedEngine shard holds every
  /// node and runs on the calling thread with no windows. N >= 1 = one
  /// event shard per block of nodes (sim::ShardMap, at most
  /// sim::kShardBlocks blocks) driven by N worker threads under
  /// conservative lookahead windows. `--parallel=1` exercises the
  /// partitioned machinery on one thread and must match `--parallel=N` and
  /// the serial run bit for bit. Windows are planned from the fabric's
  /// guaranteed lookahead (net::guaranteed_lookahead), sim::kWindowBatch
  /// chained windows per global synchronization. N >= 1 is incompatible
  /// with fabric link_bandwidth contention.
  int parallel = 0;
};

struct SimulationResult {
  bool completed = false;
  sim::Duration elapsed = sim::Duration::zero();
  /// Raw events fired, mode-dependent: a serial run stops at the completing
  /// event while partitioned runs drain the rest of their final lookahead
  /// window, so this counter legitimately differs across modes.
  std::uint64_t events = 0;
  /// Events fired strictly before the job's completion time — the
  /// mode-invariant counter (bit-identical histories below T_c imply equal
  /// counts). Falls back to `events` when the job did not complete.
  std::uint64_t events_at_completion = 0;
  bool any_node_evicted = false;
};

class Simulation {
 public:
  Simulation(SimulationConfig cfg, const mpi::WorkloadFactory& factory);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Launches the job and runs until completion (or the horizon).
  SimulationResult run();

  /// Shard 0's engine (the only engine of a serial run).
  [[nodiscard]] sim::Engine& engine() noexcept { return cluster_->engine(); }
  /// The partitioned executor of a `parallel >= 1` run — the attachment
  /// point for pasched-race's seam monitor and window-perturbation source.
  /// nullptr for a serial run: its one shard has no windows or seams to
  /// observe.
  [[nodiscard]] sim::ShardedEngine* sharded() noexcept {
    return cfg_.parallel > 0 ? sharded_.get() : nullptr;
  }
  [[nodiscard]] cluster::Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] mpi::Job& job() noexcept { return *job_; }
  /// nullptr when the co-scheduler is not engaged.
  [[nodiscard]] CoschedManager* cosched() noexcept { return cosched_.get(); }
  [[nodiscard]] const SimulationConfig& config() const noexcept { return cfg_; }
  /// The admin record that admitted this job, if the MP_PRIORITY flow ran.
  [[nodiscard]] const std::optional<PriorityClass>& admission() const noexcept {
    return admission_;
  }

 private:
  SimulationConfig cfg_;
  std::unique_ptr<sim::ShardedEngine> sharded_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<mpi::Job> job_;
  std::unique_ptr<CoschedManager> cosched_;
  std::optional<PriorityClass> admission_;
  bool ran_ = false;
};

}  // namespace pasched::core
