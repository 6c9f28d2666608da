// The per-node operating system model: an AIX-flavoured priority scheduler
// over an SMP node's CPUs, with timer ticks, timer callouts, cross-CPU
// preemption (delayed or IPI-forced), idle stealing, and CPU-time
// accounting. The paper's prototype-kernel changes are all policy switches
// in Tunables; the mechanism lives here.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "kern/clock.hpp"
#include "kern/thread.hpp"
#include "kern/tunables.hpp"
#include "kern/types.hpp"
#include "race/domain.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"

namespace pasched::check {
class Auditor;
}

namespace pasched::kern {

inline constexpr std::size_t kThreadClassCount = 5;

/// Per-node CPU-time accounting, split by thread class plus tick overhead.
struct Accounting {
  std::array<sim::Duration, kThreadClassCount> class_cpu{};
  sim::Duration tick_cpu = sim::Duration::zero();
  /// Wall time CPUs spent occupied / unoccupied (closed intervals only; the
  /// conservation audit adds the in-progress interval itself).
  sim::Duration busy_cpu = sim::Duration::zero();
  sim::Duration idle_cpu = sim::Duration::zero();
  /// Tick-handler time that displaced an in-progress burst — the exact gap
  /// between a thread's wall occupancy and its charged CPU time.
  sim::Duration tick_stretch = sim::Duration::zero();
  std::uint64_t ticks_taken = 0;
  std::uint64_t ipis_sent = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t dispatches = 0;

  [[nodiscard]] sim::Duration of(ThreadClass c) const {
    return class_cpu[static_cast<std::size_t>(c)];
  }
};

class Kernel {
 public:
  /// `tick_phase_seed` randomizes where this node's tick pattern starts in
  /// the absence of cluster alignment (real machines boot at different
  /// times). `ctx` is this node's scheduling handle — the engine shard that
  /// owns the node's events (implicitly constructible from a bare Engine&
  /// for single-shard use). Everything the kernel schedules is node-local.
  Kernel(sim::EventContext ctx, NodeId node, int ncpus, Tunables tunables,
         sim::Duration clock_offset, std::uint64_t tick_phase_seed);
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Arms the periodic tick machinery. Call once before running the engine.
  void start();

  // -- thread management ------------------------------------------------------
  /// Creates a thread in the Blocked state; call wake() to start it.
  Thread& create_thread(ThreadSpec spec, ThreadClient& client);

  /// Makes a blocked thread runnable. `waker_cpu` identifies the CPU on
  /// which the readying operation happened (preemption there is immediate);
  /// pass kExternalActor for deliveries from outside the node.
  void wake(Thread& t, CpuId waker_cpu = kExternalActor);

  /// Satisfies a spin-wait: if the thread's client returned Spin and the
  /// thread is on a CPU, the client is consulted again immediately. No-op if
  /// the thread is not spin-waiting.
  void kick(Thread& t);

  /// AIX setpri()-style priority change, with the paper's (reverse-)
  /// preemption semantics. `actor_cpu` = CPU the caller is running on.
  void set_priority(Thread& t, Priority prio, bool fixed,
                    CpuId actor_cpu = kExternalActor);

  /// Registers a timer callout: `fn` runs during the first tick interrupt on
  /// `cpu` whose local time is >= `due_local`. This is how timer-driven
  /// daemon wakeups batch to (big-)tick boundaries.
  void schedule_callout(CpuId cpu, sim::Time due_local, sim::Engine::Callback fn);

  /// Schedules `fn` after `delay` as a kernel entry that may dispatch a
  /// queued thread outside a tick or burst end — a zero-delay reschedule,
  /// a preemption IPI, a co-scheduler pipe message. While one is pending,
  /// earliest_post() lets a queued thread run at the next event.
  template <class F>
  void schedule_kernel_entry(sim::Duration delay, F fn) {
    bound_valid_ = false;
    ++pending_entries_;
    ctx_.schedule_after(delay, [this, fn] {
      --pending_entries_;
      fn();
    });
  }

  /// K, the earliest time any posting thread of this node (ThreadClient::
  /// posts()) can next be consulted, given the node's state now and no
  /// delivery arriving first; Time::max() when none can. Per state:
  ///   Running a burst   min(burst_deadline, now + burst_len): a tick
  ///                     stretches the burst, a preemption can only clamp
  ///                     what is left of it to burst_len;
  ///   Ready             the node's earliest dispatch opportunity — a
  ///                     burst end or any CPU's next tick, or the next
  ///                     event while a kernel entry is pending — plus the
  ///                     thread's residual work;
  ///   spinning, Blocked or Done   Time::max(): only a delivery wakes it.
  /// Returns as soon as the answer is known to be <= `floor` (the caller's
  /// next event time, which it never plans below).
  ///
  /// A bound holds for every later consultation until something outside the
  /// node's own tick, burst and dispatch events changes its state, and all
  /// such changes enter through this class's public mutators (a delivery
  /// wakes or kicks a thread). So the last full answer is kept and returned
  /// again while it is above `floor` and no mutator has run since; it may
  /// then sit below what a fresh scan would give, which is conservative.
  [[nodiscard]] sim::Time earliest_post(sim::Time floor);

  // -- queries ----------------------------------------------------------------
  [[nodiscard]] sim::Engine& engine() noexcept { return *ctx_.engine; }
  [[nodiscard]] const sim::Engine& engine() const noexcept {
    return *ctx_.engine;
  }
  [[nodiscard]] const sim::EventContext& context() const noexcept {
    return ctx_;
  }
  [[nodiscard]] NodeId node_id() const noexcept { return node_; }
  [[nodiscard]] int ncpus() const noexcept {
    return static_cast<int>(cpus_.size());
  }
  [[nodiscard]] const Tunables& tunables() const noexcept { return tun_; }
  [[nodiscard]] LocalClock& clock() noexcept { return clock_; }
  [[nodiscard]] const LocalClock& clock() const noexcept { return clock_; }
  [[nodiscard]] sim::Time local_now() const {
    return clock_.local_of(ctx_.now());
  }
  [[nodiscard]] Thread* running_on(CpuId cpu) const;
  [[nodiscard]] const Accounting& accounting() const noexcept { return acct_; }
  [[nodiscard]] std::vector<Thread*> threads() const;
  /// Number of CPUs currently executing a thread of the given class.
  [[nodiscard]] int cpus_running(ThreadClass c) const;
  /// Number of Ready threads across all run queues (node-wide queue depth,
  /// recorded into trace events for the offline analyzers).
  [[nodiscard]] int ready_count() const;

  void set_observer(SchedObserver* obs) noexcept { observer_ = obs; }

  /// The shard-ownership tag (bound to this node's shard at construction).
  [[nodiscard]] const race::Owned& owned() const noexcept { return owned_; }

 private:
  friend class ::pasched::check::Auditor;

  struct Cpu {
    // First, the fields earliest_post() reads, so its scan touches one
    // cache line per CPU.
    Thread* current = nullptr;
    sim::Time next_tick{};       // global time of the armed tick event
    std::vector<Thread*> runq;   // ready threads queued to this CPU
    Thread* last_run = nullptr;  // context-switch cost bookkeeping
    sim::Time run_start{};
    sim::Time idle_since{};  // start of the current idle interval
    bool ipi_pending = false;
    sim::Time next_tick_local{};
    struct Callout {
      sim::Time due_local;
      std::uint64_t seq;
      sim::Engine::Callback fn;
    };
    std::vector<Callout> callouts;
  };

  // Queue / dispatch machinery.
  void set_state(Thread& t, ThreadState to);
  void enqueue(Thread& t);
  void remove_from_queue(Thread& t);
  [[nodiscard]] Thread* peek_best(CpuId cpu, bool allow_steal) const;
  void dispatch(CpuId cpu);
  void continue_run(CpuId cpu, Thread& t);
  void advance_client(CpuId cpu, Thread& t);
  void arm_burst(CpuId cpu, Thread& t);
  void on_burst_end(CpuId cpu, Thread& t);
  void preempt(CpuId cpu);
  void take_off_cpu(CpuId cpu, bool charge);
  void block_current(CpuId cpu, ThreadState new_state);

  // Preemption notice paths.
  void after_enqueue(Thread& t, CpuId waker_cpu);
  void notice_resched(CpuId cpu);
  void send_preempt_ipi(CpuId target, Thread& on_behalf);
  [[nodiscard]] CpuId find_idle_cpu_for(const Thread& t) const;
  [[nodiscard]] CpuId preferred_target(const Thread& t) const;

  // Tick machinery.
  void arm_tick(CpuId cpu);
  void on_tick(CpuId cpu);
  [[nodiscard]] sim::Duration tick_phase(CpuId cpu) const;
  void decay_priorities();

  // Accounting.
  void charge(Thread& t, sim::Duration amount);

  sim::EventContext ctx_;
  NodeId node_;
  race::Owned owned_;  // always present so layout is validation-agnostic
  Tunables tun_;
  LocalClock clock_;
  sim::Duration unaligned_phase_;  // random tick origin when not aligned
  std::vector<Cpu> cpus_;
  std::vector<Thread*> globalq_;  // ready threads runnable on any CPU
  std::vector<std::unique_ptr<Thread>> threads_;
  sim::Time acct_start_{};  // when busy/idle accounting began (construction)
  sim::Time last_decay_{};
  std::uint64_t seq_ = 0;
  std::uint64_t callout_seq_ = 0;
  int pending_entries_ = 0;  // schedule_kernel_entry events not yet fired
  // earliest_post()'s last full answer, valid until a public mutator runs.
  sim::Time bound_ = sim::Time::max();
  bool bound_valid_ = false;
  // Reused per-tick scratch for due callouts: cleared each on_tick(),
  // capacity persists (grown via util::reserve_cold only), so steady-state
  // tick dispatch is allocation-free.
  std::vector<Cpu::Callout> due_scratch_;
  Accounting acct_;
  SchedObserver* observer_ = nullptr;
  int next_tid_ = 1;
  bool started_ = false;
};

}  // namespace pasched::kern
