// The AIX `trace` facility analogue: records who occupied each CPU and when,
// so outliers can be attributed ("an administrative cron job ran during the
// slowest Allreduce", §5.3). Implemented as a kern::SchedObserver installed
// on each node's kernel; recording can be windowed to keep memory bounded,
// exactly like the paper enabling tracing only around the Allreduce loops.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kern/kernel.hpp"
#include "sim/time.hpp"
#include "trace/events.hpp"

namespace pasched::trace {

/// A closed occupancy interval: `thread` ran on (node, cpu) for [begin, end).
struct Interval {
  sim::Time begin;
  sim::Time end;
  kern::NodeId node;
  kern::CpuId cpu;
  const kern::Thread* thread;  // threads outlive the simulation
};

struct TraceCounts {
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t ticks = 0;
  std::uint64_t ipis = 0;
};

// srclint-ok(PSL402): uses the container-form ownership discipline — every
// per-node mutation passes PASCHED_ASSERT_DOMAIN (race/domain.hpp), which
// exists precisely for per-node buffers with no Owned member per element.
class Tracer final : public kern::SchedObserver {
 public:
  /// `node_filter` restricts recording to one node (-1 = all nodes).
  explicit Tracer(kern::NodeId node_filter = -1);

  /// Installs this tracer as the observer of the kernel.
  void attach(kern::Kernel& kernel);

  /// Additionally mirrors scheduling events (with priority and ready-queue
  /// depth) into `log` for the offline analyzers. The log's own enable gate
  /// applies on top of this tracer's interval gate.
  void set_event_log(EventLog* log) {
    elog_ = log;
    if (elog_ != nullptr)
      for (std::size_t n = 0; n < kernels_.size(); ++n)
        if (kernels_[n] != nullptr)
          elog_->bind_node(static_cast<int>(n), kernels_[n]->context().shard);
  }
  [[nodiscard]] EventLog* event_log() const noexcept { return elog_; }

  /// Starts/stops interval recording (counts are always maintained).
  void enable(sim::Time now);
  void disable(sim::Time now);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Closed intervals, merged from the per-node buffers in node order (each
  /// node's buffer keeps its own recording order). The merge is a pure
  /// function of the per-node streams, so sequential and partitioned runs
  /// agree byte-for-byte. Not safe to call while shards record.
  [[nodiscard]] const std::vector<Interval>& intervals() const;
  /// Counts summed over all nodes.
  [[nodiscard]] TraceCounts counts() const;
  void clear();

  // kern::SchedObserver ------------------------------------------------------
  void on_dispatch(sim::Time t, kern::NodeId node, kern::CpuId cpu,
                   const kern::Thread& th) override;
  void on_preempt(sim::Time t, kern::NodeId node, kern::CpuId cpu,
                  const kern::Thread& th) override;
  void on_state(sim::Time t, kern::NodeId node, const kern::Thread& th,
                kern::ThreadState to) override;
  void on_tick(sim::Time t, kern::NodeId node, kern::CpuId cpu) override;
  void on_ipi(sim::Time t, kern::NodeId node, kern::CpuId cpu) override;
  void on_idle(sim::Time t, kern::NodeId node, kern::CpuId cpu) override;

 private:
  struct Open {
    const kern::Thread* thread = nullptr;
    sim::Time since{};
  };
  [[nodiscard]] Open& slot(kern::NodeId node, kern::CpuId cpu);
  void close_slot(Open& o, sim::Time t, kern::NodeId node, kern::CpuId cpu);
  void log_event(EventKind kind, sim::Time t, kern::NodeId node,
                 kern::CpuId cpu, const kern::Thread* th);
  [[nodiscard]] int ready_depth(kern::NodeId node) const;

  // Everything a scheduling callback mutates is per-node, so kernels on
  // different shards record concurrently without locks. attach() presizes
  // the per-node state; the merged interval view is rebuilt lazily.
  struct PerNode {
    std::vector<Interval> intervals;
    TraceCounts counts;
  };
  PerNode& per_node(kern::NodeId node);
  /// The shard domain that owns `node`'s recording state: its kernel's
  /// EventContext shard (kUnbound before attach).
  [[nodiscard]] race::Domain owner_of(kern::NodeId node) const;
  void push_interval(const Interval& iv);

  kern::NodeId node_filter_;
  bool enabled_ = false;
  std::vector<std::vector<Open>> open_;  // [node][cpu]
  std::vector<const kern::Kernel*> kernels_;  // [node], for queue depth
  std::vector<std::unique_ptr<PerNode>> per_node_;  // [node]
  // srclint-ok(PSL402): post-run lazily-rebuilt cache behind the atomic
  // dirty_ flag; rebuilt only after the shard workers have joined.
  mutable std::vector<Interval> merged_;
  mutable std::atomic<bool> dirty_{false};
  EventLog* elog_ = nullptr;
};

/// CPU time by thread within [t0, t1) on one node (or all nodes with -1),
/// most-consuming first. `exclude_app` drops the job's own task threads —
/// what remains is the interference the paper's trace analysis hunts for.
struct Attribution {
  std::string name;
  kern::ThreadClass cls;
  sim::Duration cpu_time;
};
[[nodiscard]] std::vector<Attribution> attribute(
    const std::vector<Interval>& intervals, kern::NodeId node, sim::Time t0,
    sim::Time t1, bool exclude_app);

/// Fraction of [t0, t1) during which *every* CPU of `node` was running an
/// AppTask thread — the "green" time of Figure 1.
[[nodiscard]] double all_cpus_app_fraction(
    const std::vector<Interval>& intervals, kern::NodeId node, int ncpus,
    sim::Time t0, sim::Time t1);

}  // namespace pasched::trace
