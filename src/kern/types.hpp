// Shared vocabulary types for the kernel model.
//
// Priorities follow the AIX convention the paper uses: numerically LOWER is
// MORE favored. Normal user work has base 60 and decays into the 90–120
// band as it accumulates CPU; "real-time" fixed priorities sit in 40–60;
// the co-scheduler parks jobs at favored 30/41 and unfavored 100.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace pasched::kern {

using Priority = int;

inline constexpr Priority kBestPriority = 0;
inline constexpr Priority kWorstPriority = 127;
inline constexpr Priority kNormalUserBase = 60;
/// Maximum penalty added to a decaying thread's base priority.
inline constexpr Priority kMaxUsagePenalty = 60;

using NodeId = int;
using CpuId = int;
inline constexpr CpuId kNoCpu = -1;
/// "Actor" value meaning the action came from outside any CPU context
/// (e.g. a network delivery): never counts as an on-CPU readying operation.
inline constexpr CpuId kExternalActor = -2;

enum class ThreadState : std::uint8_t { Ready, Running, Blocked, Done };

/// Coarse classification used for CPU-time accounting and for scheduling
/// policy decisions (e.g. the prototype kernel forces Daemon work onto the
/// node-global run queue).
enum class ThreadClass : std::uint8_t {
  AppTask,      // an MPI task of the parallel job
  AppAux,       // auxiliary thread of the job (MPI progress engine)
  Daemon,       // system daemon (syncd, mmfsd, cron children, ...)
  CoScheduler,  // the co-scheduler daemon itself
  Other,        // anything else
};

[[nodiscard]] const char* to_string(ThreadClass c) noexcept;
[[nodiscard]] const char* to_string(ThreadState s) noexcept;

/// What a thread wants to do next, returned from ThreadClient::next().
struct RunDecision {
  enum class Kind : std::uint8_t {
    Compute,  // consume `amount` of CPU, then ask again
    Spin,     // busy-wait on CPU until kicked (MPI spin-receive)
    Block,    // give up the CPU until woken
    Exit,     // thread is finished
  };
  Kind kind = Kind::Block;
  sim::Duration amount = sim::Duration::zero();

  [[nodiscard]] static RunDecision compute(sim::Duration d) {
    return {Kind::Compute, d};
  }
  [[nodiscard]] static RunDecision spin() { return {Kind::Spin, {}}; }
  [[nodiscard]] static RunDecision block() { return {Kind::Block, {}}; }
  [[nodiscard]] static RunDecision exit() { return {Kind::Exit, {}}; }
};

class Thread;

/// The program executed by a thread. The kernel calls next() whenever the
/// thread is on a CPU and has no unfinished compute burst. Contract:
/// Compute amounts must be strictly positive.
class ThreadClient {
 public:
  virtual ~ThreadClient() = default;
  virtual RunDecision next(sim::Time now) = 0;
  /// True for a *posting* program: one whose next() can call
  /// sim::ShardedEngine::post, directly or by waking a thread that may post as
  /// soon as it runs. Kernel::earliest_post() bounds only these threads, so
  /// a program that posts without saying so breaks the partitioned run's
  /// earliest-output claim (validated builds catch it). Read once, when
  /// the kernel creates the thread.
  [[nodiscard]] virtual bool posts() const noexcept { return false; }
};

/// Observer hooks for tracing and tests. All default to no-ops.
class SchedObserver {
 public:
  virtual ~SchedObserver() = default;
  virtual void on_dispatch(sim::Time, NodeId, CpuId, const Thread&) {}
  virtual void on_preempt(sim::Time, NodeId, CpuId, const Thread& /*out*/) {}
  virtual void on_state(sim::Time, NodeId, const Thread&, ThreadState) {}
  virtual void on_tick(sim::Time, NodeId, CpuId) {}
  virtual void on_ipi(sim::Time, NodeId, CpuId /*target*/) {}
  virtual void on_idle(sim::Time, NodeId, CpuId) {}
};

}  // namespace pasched::kern
