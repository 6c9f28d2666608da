// Thread control block. Threads are created and owned by the Kernel; the
// program they execute is supplied as a ThreadClient (non-owning — task
// programs and daemon models outlive their threads).
#pragma once

#include <cstdint>
#include <string>

#include "kern/types.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace pasched::check {
class Auditor;
}

namespace pasched::kern {

/// Construction parameters for a thread.
struct ThreadSpec {
  std::string name;
  ThreadClass cls = ThreadClass::Other;
  Priority base_priority = kNormalUserBase;
  /// Fixed priorities never decay (AIX setpri semantics). Decaying threads
  /// degrade by up to kMaxUsagePenalty as they accumulate recent CPU.
  bool fixed_priority = false;
  /// Home CPU for locality-queued work; kNoCpu = node-global queue.
  CpuId home_cpu = kNoCpu;
  /// May an idle CPU other than home run this thread?
  bool stealable = true;
};

class Kernel;

class Thread {
 public:
  Thread(int tid, ThreadSpec spec, ThreadClient* client);

  // Identity -----------------------------------------------------------------
  [[nodiscard]] int tid() const noexcept { return tid_; }
  [[nodiscard]] const std::string& name() const noexcept { return spec_.name; }
  [[nodiscard]] ThreadClass cls() const noexcept { return spec_.cls; }
  [[nodiscard]] CpuId home_cpu() const noexcept { return spec_.home_cpu; }
  [[nodiscard]] bool stealable() const noexcept { return spec_.stealable; }

  // Scheduling state ----------------------------------------------------------
  [[nodiscard]] ThreadState state() const noexcept { return state_; }
  [[nodiscard]] CpuId running_on() const noexcept { return running_on_; }
  [[nodiscard]] Priority base_priority() const noexcept { return base_prio_; }
  [[nodiscard]] bool fixed_priority() const noexcept { return fixed_prio_; }

  /// Effective dispatch priority (base plus usage penalty when decaying).
  [[nodiscard]] Priority effective_priority() const noexcept;

  // Accounting ----------------------------------------------------------------
  [[nodiscard]] sim::Duration total_cpu() const noexcept { return total_cpu_; }
  [[nodiscard]] std::uint64_t dispatch_count() const noexcept {
    return dispatches_;
  }
  [[nodiscard]] sim::Duration recent_cpu() const noexcept {
    return recent_cpu_;
  }

 private:
  friend class Kernel;
  friend class ::pasched::check::Auditor;

  int tid_;
  ThreadSpec spec_;
  ThreadClient* client_;
  // Copied from the owning kernel's tunables so effective_priority() needs
  // no back-reference.
  sim::Duration penalty_unit_ = sim::Duration::ms(8);

  // Mutable scheduling fields, managed exclusively by Kernel.
  ThreadState state_ = ThreadState::Blocked;
  CpuId running_on_ = kNoCpu;
  Priority base_prio_;
  bool fixed_prio_;
  sim::Duration recent_cpu_ = sim::Duration::zero();

  sim::Duration residual_ = sim::Duration::zero();  // unfinished burst work
  sim::Duration pending_switch_cost_ = sim::Duration::zero();
  bool spin_waiting_ = false;  // client returned Spin, not yet kicked
  // The client's posts(), cached at creation; beside the burst fields
  // Kernel::earliest_post() reads with it.
  bool posts_ = false;
  sim::Time spin_start_{};
  sim::EventId burst_event_{};
  sim::Time burst_deadline_{};
  sim::Duration burst_len_ = sim::Duration::zero();

  std::uint64_t enqueue_seq_ = 0;  // FIFO tie-break among equal priorities

  sim::Duration total_cpu_ = sim::Duration::zero();
  std::uint64_t dispatches_ = 0;
};

}  // namespace pasched::kern
