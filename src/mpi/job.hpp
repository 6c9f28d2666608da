// A parallel job: task placement across the cluster, message routing,
// timing-span collection, completion detection, and the control-pipe link
// to the co-scheduler (via SchedulerHook).
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "mpi/aux_thread.hpp"
#include "mpi/config.hpp"
#include "mpi/hook.hpp"
#include "mpi/task.hpp"
#include "mpi/workload.hpp"
#include "race/domain.hpp"
#include "trace/events.hpp"
#include "util/stats.hpp"

namespace pasched::mpi {

struct JobConfig {
  int ntasks = 16;
  /// Tasks placed block-wise: node = first_node + rank / tasks_per_node,
  /// CPU = rank % tasks_per_node. 15 here on 16-way nodes reproduces the
  /// "leave one CPU for the daemons" convention of §2.
  int tasks_per_node = 16;
  int first_node = 0;
  MpiConfig mpi;
  /// Rank whose per-call span durations are recorded verbatim (Figure 4
  /// extracts per-Allreduce times from one node's trace).
  int record_rank = 0;
  bool stop_engine_on_complete = true;
  std::uint64_t seed = 12345;

  /// GPFS-style distributed I/O: each request is served partly by the local
  /// mmfsd and partly shipped to this many peer nodes' daemons. This is why
  /// a co-scheduler that starves daemons on *compute* nodes stalls I/O
  /// issued elsewhere (§5.3's ALE3D slowdown).
  int io_remote_shards = 2;
};

/// Aggregate timing data for one marker channel.
struct ChannelStats {
  /// Every (task, span) duration in microseconds.
  util::Accumulator all_us;
  /// Per-span durations (us) of the recorded rank, in sequence order.
  std::vector<double> recorded_us;
  /// Matching span start times (for trace attribution of outliers).
  std::vector<sim::Time> recorded_begin;
};

class Job {
 public:
  Job(cluster::Cluster& cluster, JobConfig cfg, const WorkloadFactory& factory);
  ~Job();
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Optional co-scheduler wiring; set before launch().
  void set_hook(SchedulerHook* hook) noexcept { hook_ = hook; }

  /// Optional message-event recording (send / recv-wait / recv, with message
  /// ids) for the offline trace analyzers; set before launch(). Pairs with
  /// trace::Tracer::set_event_log on the same log to get the full
  /// happens-before event stream.
  void set_event_log(trace::EventLog* log) {
    elog_ = log;
    if (elog_ != nullptr)
      for (int n = 0; n < cluster_.size(); ++n)
        elog_->bind_node(n, cluster_.node(n).kernel().context().shard);
  }
  [[nodiscard]] trace::EventLog* event_log() const noexcept { return elog_; }

  /// Registers all tasks with the hook and wakes every task thread (and
  /// progress-engine aux threads, if configured).
  void launch();
  /// launch() in two steps, as core::Simulation runs it: prepare_launch()
  /// stamps the launch time and prepares every task-hosting node's hook in
  /// node order (the one step that touches state shared across nodes), then
  /// launch_shard(s) runs the rest of the launch for the tasks on shard s,
  /// on the worker that owns it. Per node, the scheduled events and their
  /// order are exactly launch()'s.
  void prepare_launch();
  void launch_shard(int shard);

  [[nodiscard]] bool complete() const noexcept {
    return finished_.load(std::memory_order_acquire) ==
           static_cast<int>(tasks_.size());
  }
  [[nodiscard]] sim::Time launch_time() const noexcept { return launch_time_; }
  [[nodiscard]] sim::Time completion_time() const noexcept {
    return completion_time_;
  }
  [[nodiscard]] sim::Duration elapsed() const noexcept {
    return completion_time_ - launch_time_;
  }

  [[nodiscard]] const ChannelStats& channel(std::uint32_t ch) const;
  [[nodiscard]] const JobConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const MpiConfig& mpi_config() const noexcept {
    return cfg_.mpi;
  }
  [[nodiscard]] Task& task(int rank);
  [[nodiscard]] int ntasks() const noexcept {
    return static_cast<int>(tasks_.size());
  }
  [[nodiscard]] cluster::Cluster& cluster() noexcept { return cluster_; }
  /// Total CPU consumed by all progress-engine threads.
  [[nodiscard]] sim::Duration aux_cpu_total() const;

 private:
  friend class Task;

  void inject(Task& from, int dst_rank, std::uint64_t tag, std::size_t bytes);
  void submit_io(Task& t, std::size_t bytes);
  void hw_contribute(Task& t, std::uint64_t seq, std::size_t bytes);
  /// Runs on kCombineShard: counts contributions and broadcasts.
  void hw_arrive(std::uint64_t seq, std::size_t bytes);
  void on_span(Task& t, std::uint32_t channel, std::uint64_t seq,
               sim::Time begin, sim::Time end);
  void task_finished(Task& t, sim::Time now);
  /// Completion epilogue (aux cancel, hook, engine stop). Under partitioned
  /// execution this runs at a synchronization barrier — no shard is firing
  /// events — so it may safely touch every node's engine.
  void wrapup();
  void rebuild_channels() const;
  void hook_detach(Task& t);
  void hook_attach(Task& t);

  /// Span-log word of one marker span: its length in ns above the 3
  /// channel bits. Stored per rank so shards never contend, then folded
  /// into ChannelStats in canonical (rank, span-sequence) order.
  static constexpr int kChannelBits = 3;
  static constexpr std::uint64_t kChannelMask = (1U << kChannelBits) - 1;
  static_assert(kMaxChannels <= kChannelMask + 1);
  /// The shard that hosts the switch's hardware-collective combine unit.
  /// Every shard's posts to it pay a full inter-node wire hop, at least the
  /// fabric's guaranteed lookahead, so any shard can host it.
  static constexpr int kCombineShard = 0;

  cluster::Cluster& cluster_;
  JobConfig cfg_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::unique_ptr<AuxThread>> aux_;
  SchedulerHook* hook_ = nullptr;
  trace::EventLog* elog_ = nullptr;
  std::vector<std::vector<std::uint64_t>> spans_;  // [rank], presized in ctor
  // The record_rank's span begins, one per word of its spans_ row (only
  // that rank's shard appends).
  std::vector<sim::Time> recorded_begin_;
  // srclint-ok(PSL402): post-run lazily-rebuilt cache behind the atomic
  // channels_dirty_ flag; rebuilt only after the shard workers have joined.
  mutable std::array<ChannelStats, kMaxChannels> channels_;
  mutable std::atomic<bool> channels_dirty_{false};
  std::unordered_map<std::uint64_t, int> hw_pending_;  // kCombineShard only
  race::Owned combine_owned_;  // guards hw_pending_ (the combine-unit state)
  std::atomic<int> finished_{0};
  sim::Time launch_time_{};
  sim::Time completion_time_{};
};

}  // namespace pasched::mpi
