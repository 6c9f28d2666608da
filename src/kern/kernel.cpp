#include "kern/kernel.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "check/transitions.hpp"
#include "util/allocgate.hpp"
#include "util/assert.hpp"
#include "util/hotpath.hpp"

namespace pasched::kern {

using sim::Duration;
using sim::Time;

namespace {

/// Dispatch ordering: lower effective priority value wins; FIFO among equals.
bool better(const Thread& a, std::uint64_t seq_a, const Thread& b,
            std::uint64_t seq_b) {
  const Priority pa = a.effective_priority();
  const Priority pb = b.effective_priority();
  if (pa != pb) return pa < pb;
  return seq_a < seq_b;
}

}  // namespace

Kernel::Kernel(sim::EventContext ctx, NodeId node, int ncpus, Tunables tunables,
               Duration clock_offset, std::uint64_t tick_phase_seed)
    : ctx_(ctx), node_(node), tun_(tunables), clock_(clock_offset) {
  PASCHED_EXPECTS(ncpus > 0);
  owned_.bind(ctx_.shard, "kern.Kernel", node);
  PASCHED_EXPECTS(tun_.big_tick >= 1);
  cpus_.resize(static_cast<std::size_t>(ncpus));
  acct_start_ = ctx_.now();
  for (Cpu& c : cpus_) c.idle_since = acct_start_;
  const std::int64_t interval = tun_.tick_interval().count();
  unaligned_phase_ = Duration::ns(
      static_cast<std::int64_t>(tick_phase_seed % static_cast<std::uint64_t>(
                                    interval > 0 ? interval : 1)));
}

Kernel::~Kernel() = default;

void Kernel::start() {
  PASCHED_ASSERT_OWNED(owned_, "start");
  PASCHED_EXPECTS_MSG(!started_, "Kernel::start called twice");
  started_ = true;
  bound_valid_ = false;
  last_decay_ = local_now();
  for (CpuId c = 0; c < ncpus(); ++c) arm_tick(c);
}

Thread& Kernel::create_thread(ThreadSpec spec, ThreadClient& client) {
  PASCHED_EXPECTS(spec.home_cpu == kNoCpu ||
                  (spec.home_cpu >= 0 && spec.home_cpu < ncpus()));
  bound_valid_ = false;
  auto t = std::make_unique<Thread>(next_tid_++, std::move(spec), &client);
  t->penalty_unit_ = tun_.penalty_unit;
  t->posts_ = client.posts();
  Thread& ref = *t;
  threads_.push_back(std::move(t));
  // Ready queues are bounded by the thread count (a thread sits in at most
  // one queue): pre-size them on this cold path so enqueue()'s push_back
  // never reallocates mid-tick.
  util::reserve_cold(globalq_, threads_.size());
  for (auto& c : cpus_) util::reserve_cold(c.runq, threads_.size());
  return ref;
}

// ---------------------------------------------------------------------------
// Run queues
// ---------------------------------------------------------------------------

namespace {
bool goes_to_global(const Thread& t, const Tunables& tun) {
  if (t.home_cpu() == kNoCpu) return true;
  return t.cls() == ThreadClass::Daemon && tun.daemon_global_queue;
}
}  // namespace

void Kernel::set_state(Thread& t, ThreadState to) {
  PASCHED_CHECK_MSG(check::thread_transition_ok(t.state_, to),
                    "illegal thread-state transition " +
                        check::transition_str(t.state_, to) + " for " +
                        t.name());
  t.state_ = to;
}

PASCHED_HOT void Kernel::enqueue(Thread& t) {
  PASCHED_ASSERT_MSG(t.running_on_ == kNoCpu,
                     "cannot enqueue a thread still occupying a CPU");
  set_state(t, ThreadState::Ready);
  t.enqueue_seq_ = seq_++;
  if (goes_to_global(t, tun_)) {
    globalq_.push_back(&t);
  } else {
    cpus_[static_cast<std::size_t>(t.home_cpu())].runq.push_back(&t);
  }
  if (observer_ != nullptr)
    observer_->on_state(ctx_.now(), node_, t, ThreadState::Ready);
}

PASCHED_HOT void Kernel::remove_from_queue(Thread& t) {
  auto& q = goes_to_global(t, tun_)
                ? globalq_
                : cpus_[static_cast<std::size_t>(t.home_cpu())].runq;
  const auto it = std::find(q.begin(), q.end(), &t);
  PASCHED_ASSERT_MSG(it != q.end(), "thread missing from its run queue");
  q.erase(it);
}

PASCHED_HOT Thread* Kernel::peek_best(CpuId cpu, bool allow_steal) const {
  const Cpu& c = cpus_[static_cast<std::size_t>(cpu)];
  Thread* best = nullptr;
  auto consider = [&](Thread* t) {
    if (best == nullptr ||
        better(*t, t->enqueue_seq_, *best, best->enqueue_seq_))
      best = t;
  };
  for (Thread* t : c.runq) consider(t);
  for (Thread* t : globalq_) consider(t);
  if (best == nullptr && allow_steal && tun_.idle_steal) {
    for (const Cpu& other : cpus_) {
      if (&other == &c) continue;
      for (Thread* t : other.runq)
        if (t->stealable()) consider(t);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Dispatch / run / preempt
// ---------------------------------------------------------------------------

PASCHED_HOT void Kernel::dispatch(CpuId cpu) {
  Cpu& c = cpus_[static_cast<std::size_t>(cpu)];
  PASCHED_ASSERT(c.current == nullptr);
  Thread* t = peek_best(cpu, /*allow_steal=*/true);
  if (t == nullptr) {
    if (observer_ != nullptr) observer_->on_idle(ctx_.now(), node_, cpu);
    return;
  }
  remove_from_queue(*t);
  PASCHED_CHECK_MSG(t->running_on_ == kNoCpu,
                    "dispatching a thread that still occupies a CPU");
  set_state(*t, ThreadState::Running);
  t->running_on_ = cpu;
  t->dispatches_++;
  acct_.idle_cpu += ctx_.now() - c.idle_since;
  c.current = t;
  c.run_start = ctx_.now();
  t->pending_switch_cost_ =
      (c.last_run == t) ? Duration::zero() : tun_.context_switch_cost;
  c.last_run = t;
  ++acct_.dispatches;
  if (observer_ != nullptr)
    observer_->on_dispatch(ctx_.now(), node_, cpu, *t);
  continue_run(cpu, *t);
}

PASCHED_HOT void Kernel::continue_run(CpuId cpu, Thread& t) {
  if (t.residual_ > Duration::zero()) {
    arm_burst(cpu, t);
  } else if (t.spin_waiting_) {
    t.spin_start_ = ctx_.now();  // resume spinning; charge from here
  } else {
    advance_client(cpu, t);
  }
}

PASCHED_HOT void Kernel::advance_client(CpuId cpu, Thread& t) {
  PASCHED_ASSERT(cpus_[static_cast<std::size_t>(cpu)].current == &t);
  const RunDecision d = t.client_->next(ctx_.now());
  switch (d.kind) {
    case RunDecision::Kind::Compute: {
      PASCHED_EXPECTS_MSG(d.amount > Duration::zero(),
                          "Compute decisions must be strictly positive");
      Duration amount = d.amount;
      // §3.1.2: global-queue dispatch trades daemon locality for
      // parallelism; the burst runs slightly longer.
      if (t.cls() == ThreadClass::Daemon && tun_.daemon_global_queue)
        amount = amount * (1.0 + tun_.global_queue_overhead);
      t.residual_ = amount;
      arm_burst(cpu, t);
      return;
    }
    case RunDecision::Kind::Spin:
      t.spin_waiting_ = true;
      t.spin_start_ = ctx_.now();
      return;
    case RunDecision::Kind::Block:
      block_current(cpu, ThreadState::Blocked);
      return;
    case RunDecision::Kind::Exit:
      block_current(cpu, ThreadState::Done);
      return;
  }
}

PASCHED_HOT void Kernel::arm_burst(CpuId cpu, Thread& t) {
  const Duration total = t.pending_switch_cost_ + t.residual_;
  t.pending_switch_cost_ = Duration::zero();
  t.burst_len_ = total;
  t.burst_deadline_ = ctx_.now() + total;
  Thread* tp = &t;
  t.burst_event_ = ctx_.schedule_at(
      t.burst_deadline_, [this, cpu, tp] { on_burst_end(cpu, *tp); });
}

PASCHED_HOT void Kernel::on_burst_end(CpuId cpu, Thread& t) {
  PASCHED_ASSERT(cpus_[static_cast<std::size_t>(cpu)].current == &t);
  t.burst_event_ = sim::EventId{};
  charge(t, t.burst_len_);
  t.burst_len_ = Duration::zero();
  t.residual_ = Duration::zero();
  advance_client(cpu, t);
}

PASCHED_HOT void Kernel::take_off_cpu(CpuId cpu, bool charge_time) {
  Cpu& c = cpus_[static_cast<std::size_t>(cpu)];
  Thread* t = c.current;
  PASCHED_ASSERT(t != nullptr);
  if (ctx_.pending(t->burst_event_)) {
    // Tick interrupts push the deadline out, so wall-time-remaining can
    // exceed the nominal work; clamp so work is conserved and the charge
    // stays non-negative. When the thread leaves before the elapsed wall
    // time covers the pushed-out handler cost (e.g. a tick preempts it at
    // the very timestamp of the push), the overhang was booked as
    // tick_stretch but never occupied the CPU — deduct it so the
    // conservation ledger stays exact.
    const Duration raw = t->burst_deadline_ - ctx_.now();
    const Duration remaining =
        std::clamp(raw, Duration::zero(), t->burst_len_);
    if (raw > t->burst_len_) acct_.tick_stretch -= raw - t->burst_len_;
    ctx_.cancel(t->burst_event_);
    t->burst_event_ = sim::EventId{};
    if (charge_time) charge(*t, t->burst_len_ - remaining);
    t->residual_ = remaining;
    t->burst_len_ = Duration::zero();
  } else if (t->spin_waiting_) {
    if (charge_time) charge(*t, ctx_.now() - t->spin_start_);
  }
  t->running_on_ = kNoCpu;
  c.current = nullptr;
  acct_.busy_cpu += ctx_.now() - c.run_start;
  c.idle_since = ctx_.now();
}

PASCHED_HOT void Kernel::preempt(CpuId cpu) {
  Cpu& c = cpus_[static_cast<std::size_t>(cpu)];
  Thread* t = c.current;
  PASCHED_ASSERT(t != nullptr);
  take_off_cpu(cpu, /*charge=*/true);
  enqueue(*t);
  ++acct_.preemptions;
  if (observer_ != nullptr) observer_->on_preempt(ctx_.now(), node_, cpu, *t);
  dispatch(cpu);
  // The displaced thread may immediately continue on an idle CPU (AIX idle
  // processors "beneficially steal" ready work).
  if (t->state_ == ThreadState::Ready) {
    const CpuId idle = find_idle_cpu_for(*t);
    if (idle != kNoCpu) dispatch(idle);
  }
}

void Kernel::block_current(CpuId cpu, ThreadState new_state) {
  Cpu& c = cpus_[static_cast<std::size_t>(cpu)];
  Thread* t = c.current;
  PASCHED_ASSERT(t != nullptr);
  take_off_cpu(cpu, /*charge=*/true);
  set_state(*t, new_state);
  if (observer_ != nullptr)
    observer_->on_state(ctx_.now(), node_, *t, new_state);
  dispatch(cpu);
}

// ---------------------------------------------------------------------------
// Wakeups, kicks, priority changes
// ---------------------------------------------------------------------------

void Kernel::wake(Thread& t, CpuId waker_cpu) {
  PASCHED_ASSERT_OWNED(owned_, "wake");
  PASCHED_EXPECTS_MSG(t.state_ == ThreadState::Blocked,
                      "wake() requires a blocked thread: " + t.name());
  bound_valid_ = false;
  enqueue(t);
  after_enqueue(t, waker_cpu);
}

void Kernel::kick(Thread& t) {
  PASCHED_ASSERT_OWNED(owned_, "kick");
  if (!t.spin_waiting_) return;  // nothing waiting (message already consumed)
  bound_valid_ = false;
  t.spin_waiting_ = false;
  if (t.state_ == ThreadState::Running) {
    charge(t, ctx_.now() - t.spin_start_);
    advance_client(t.running_on_, t);
  }
  // If Ready (preempted while spinning): the next dispatch will consult the
  // client because residual == 0 and spin_waiting is now false.
}

void Kernel::set_priority(Thread& t, Priority prio, bool fixed,
                          CpuId actor_cpu) {
  PASCHED_ASSERT_OWNED(owned_, "set_priority");
  PASCHED_EXPECTS(prio >= kBestPriority && prio <= kWorstPriority);
  bound_valid_ = false;
  t.base_prio_ = prio;
  t.fixed_prio_ = fixed;
  if (t.state_ == ThreadState::Running) {
    const CpuId c = t.running_on_;
    Thread* best = peek_best(c, /*allow_steal=*/false);
    if (best != nullptr &&
        best->effective_priority() < t.effective_priority()) {
      // Reverse pre-emption: the running thread just became less favored
      // than a waiter (§3, deficiency 1 of the stock RT option).
      if (actor_cpu == c) {
        schedule_kernel_entry(Duration::zero(),
                              [this, c] { notice_resched(c); });
      } else if (tun_.rt_scheduling && tun_.rt_reverse_preemption) {
        send_preempt_ipi(c, *best);
      }
      // Otherwise: the busy CPU notices at its next tick / kernel entry.
    }
  } else if (t.state_ == ThreadState::Ready) {
    after_enqueue(t, actor_cpu);
  }
}

void Kernel::after_enqueue(Thread& t, CpuId waker_cpu) {
  const CpuId idle = find_idle_cpu_for(t);
  if (idle != kNoCpu) {
    dispatch(idle);
    return;
  }
  const CpuId target = preferred_target(t);
  if (target == kNoCpu) return;
  Thread* cur = cpus_[static_cast<std::size_t>(target)].current;
  PASCHED_ASSERT(cur != nullptr);
  if (t.effective_priority() >= cur->effective_priority()) return;
  if (waker_cpu == target) {
    // The readying operation happened on the CPU to preempt: the kernel is
    // already entered there, so the switch happens at the next dispatch
    // point (modelled as a zero-delay reschedule).
    const CpuId c = target;
    schedule_kernel_entry(Duration::zero(), [this, c] { notice_resched(c); });
  } else if (tun_.rt_scheduling) {
    send_preempt_ipi(target, t);
  }
  // Without the RT option the busy CPU notices only at its next tick,
  // interrupt, or block — the up-to-10 ms delay of §3.
}

CpuId Kernel::find_idle_cpu_for(const Thread& t) const {
  const bool anywhere = t.stealable() || goes_to_global(t, tun_);
  if (!anywhere) {
    const CpuId h = t.home_cpu();
    if (h != kNoCpu && cpus_[static_cast<std::size_t>(h)].current == nullptr)
      return h;
    return kNoCpu;
  }
  // Prefer the home CPU if idle, else any idle CPU.
  const CpuId h = t.home_cpu();
  if (h != kNoCpu && cpus_[static_cast<std::size_t>(h)].current == nullptr)
    return h;
  for (CpuId c = 0; c < ncpus(); ++c)
    if (cpus_[static_cast<std::size_t>(c)].current == nullptr) return c;
  return kNoCpu;
}

CpuId Kernel::preferred_target(const Thread& t) const {
  if (!goes_to_global(t, tun_)) return t.home_cpu();
  // Global work preempts the CPU running the least favored thread.
  CpuId worst = kNoCpu;
  Priority worst_prio = kBestPriority - 1;
  for (CpuId c = 0; c < ncpus(); ++c) {
    const Thread* cur = cpus_[static_cast<std::size_t>(c)].current;
    if (cur == nullptr) return c;  // idle (shouldn't reach here, but safe)
    const Priority p = cur->effective_priority();
    if (p > worst_prio) {
      worst_prio = p;
      worst = c;
    }
  }
  return worst;
}

void Kernel::send_preempt_ipi(CpuId target, Thread& on_behalf) {
  Cpu& c = cpus_[static_cast<std::size_t>(target)];
  if (c.ipi_pending) return;  // one is already on its way
  if (!tun_.rt_multi_ipi) {
    // Stock RT option (§3, deficiency 2): while any preemption interrupt is
    // in flight, no further one is generated if its target would be eligible
    // to run this thread anyway.
    const bool anywhere = on_behalf.stealable() || goes_to_global(on_behalf, tun_);
    for (CpuId i = 0; i < ncpus(); ++i) {
      if (!cpus_[static_cast<std::size_t>(i)].ipi_pending) continue;
      if (anywhere || on_behalf.home_cpu() == i) return;
    }
  }
  c.ipi_pending = true;
  ++acct_.ipis_sent;
  schedule_kernel_entry(tun_.ipi_latency, [this, target] {
    cpus_[static_cast<std::size_t>(target)].ipi_pending = false;
    if (observer_ != nullptr) observer_->on_ipi(ctx_.now(), node_, target);
    notice_resched(target);
  });
}

void Kernel::notice_resched(CpuId cpu) {
  Cpu& c = cpus_[static_cast<std::size_t>(cpu)];
  if (c.current == nullptr) {
    dispatch(cpu);
    return;
  }
  Thread* best = peek_best(cpu, /*allow_steal=*/false);
  if (best == nullptr) return;
  const Priority bp = best->effective_priority();
  const Priority cp = c.current->effective_priority();
  if (bp < cp) {
    preempt(cpu);
  } else if (bp == cp &&
             ctx_.now() - c.run_start >= tun_.timeslice) {
    preempt(cpu);  // round-robin among equals at timeslice expiry
  }
}

// ---------------------------------------------------------------------------
// Ticks, callouts, decay
// ---------------------------------------------------------------------------

Duration Kernel::tick_phase(CpuId cpu) const {
  if (tun_.synchronized_ticks) return Duration::zero();
  // AIX staggering: CPU i ticks interval/ncpus later than CPU i-1 (§3.2.1).
  return tun_.tick_interval() * static_cast<std::int64_t>(cpu) /
         static_cast<std::int64_t>(ncpus());
}

void Kernel::arm_tick(CpuId cpu) {
  const Duration interval = tun_.tick_interval();
  Duration phase = tick_phase(cpu);
  if (!tun_.cluster_aligned_ticks) phase += unaligned_phase_;
  // Next tick strictly in the future, aligned in *local* time.
  const Time next_local =
      (local_now() + Duration::ns(1)).align_up(interval, phase);
  Cpu& c = cpus_[static_cast<std::size_t>(cpu)];
  c.next_tick_local = next_local;
  c.next_tick = clock_.global_of(next_local);
  ctx_.schedule_at(c.next_tick, [this, cpu] { on_tick(cpu); });
}

PASCHED_HOT void Kernel::on_tick(CpuId cpu) {
  PASCHED_ALLOC_HOT_SCOPE("Kernel::on_tick");
  Cpu& c = cpus_[static_cast<std::size_t>(cpu)];
  ++acct_.ticks_taken;
  const Duration cost = tun_.effective_tick_cost();
  acct_.tick_cpu += cost;
  if (observer_ != nullptr) observer_->on_tick(ctx_.now(), node_, cpu);

  // The interrupt steals time from whatever is running: push an in-progress
  // burst's completion out by the handler cost.
  if (c.current != nullptr && ctx_.pending(c.current->burst_event_)) {
    Thread& t = *c.current;
    ctx_.cancel(t.burst_event_);
    acct_.tick_stretch += cost;
    t.burst_deadline_ += cost;
    Thread* tp = &t;
    t.burst_event_ = ctx_.schedule_at(
        t.burst_deadline_, [this, cpu, tp] { on_burst_end(cpu, *tp); });
  }

  // Fire due timer callouts (batched to tick boundaries — the "big tick"
  // batching effect of §3.1.1 follows directly). The due list is a member
  // scratch buffer (cleared per tick, capacity persists) so steady-state
  // ticks stay allocation-free.
  const Time lnow = local_now();
  auto& callouts = c.callouts;
  due_scratch_.clear();
  util::reserve_cold(due_scratch_, callouts.size());
  for (std::size_t i = 0; i < callouts.size();) {
    if (callouts[i].due_local <= lnow) {
      due_scratch_.push_back(std::move(callouts[i]));
      callouts[i] = std::move(callouts.back());
      callouts.pop_back();
    } else {
      ++i;
    }
  }
  std::sort(due_scratch_.begin(), due_scratch_.end(),
            [](const auto& a, const auto& b) {
              if (a.due_local != b.due_local) return a.due_local < b.due_local;
              return a.seq < b.seq;
            });
  {
    // Callout bodies are client/daemon code: their allocations belong to
    // the workload's dispatch row, not to the kernel's tick accounting.
    PASCHED_ALLOC_DISPATCH_SCOPE("Kernel.callout");
    for (auto& co : due_scratch_) co.fn();
  }

  // Once per decay period (driven by CPU 0), age recent-CPU usage.
  if (cpu == 0 && lnow - last_decay_ >= tun_.decay_period) {
    last_decay_ = lnow;
    decay_priorities();
  }

  notice_resched(cpu);
  arm_tick(cpu);
}

void Kernel::schedule_callout(CpuId cpu, Time due_local,
                              sim::Engine::Callback fn) {
  PASCHED_ASSERT_OWNED(owned_, "schedule_callout");
  PASCHED_EXPECTS(cpu >= 0 && cpu < ncpus());
  bound_valid_ = false;
  cpus_[static_cast<std::size_t>(cpu)].callouts.push_back(
      Cpu::Callout{due_local, callout_seq_++, std::move(fn)});
}

Time Kernel::earliest_post(Time floor) {
  if (bound_valid_ && bound_ > floor) return bound_;
  bound_valid_ = false;
  const Time now = ctx_.now();
  Time dispatch = Time::max();  // earliest instant a queued thread gets a CPU
  Time k = Time::max();
  bool runqs = false;  // any per-CPU run queue non-empty
  for (const Cpu& c : cpus_) {
    dispatch = std::min(dispatch, c.next_tick);
    runqs = runqs || !c.runq.empty();
    const Thread* t = c.current;
    if (t == nullptr) continue;
    // burst_len_ is nonzero exactly while the burst's end event is pending.
    const bool burst = t->burst_len_ > Duration::zero();
    if (burst) dispatch = std::min(dispatch, t->burst_deadline_);
    if (!t->posts_) continue;
    if (burst) {
      k = std::min(k, std::min(t->burst_deadline_, now + t->burst_len_));
    } else if (!t->spin_waiting_) {
      k = std::min(k, now);  // between decisions: consultable right away
    }
    if (k <= floor) return k;
  }
  if (pending_entries_ > 0) dispatch = std::min(dispatch, floor);
  const auto queued = [&](const std::vector<Thread*>& q) {
    for (const Thread* t : q)
      if (t->posts_ && !t->spin_waiting_)
        k = std::min(k, dispatch + t->residual_);
  };
  queued(globalq_);
  if (runqs) {
    for (const Cpu& c : cpus_) {
      if (k <= floor) return k;
      queued(c.runq);
    }
  }
  bound_ = k;
  bound_valid_ = true;
  return k;
}

void Kernel::decay_priorities() {
  for (auto& t : threads_) t->recent_cpu_ = t->recent_cpu_ / 2;
}

// ---------------------------------------------------------------------------
// Accounting / queries
// ---------------------------------------------------------------------------

PASCHED_HOT void Kernel::charge(Thread& t, Duration amount) {
  PASCHED_ASSERT(amount >= Duration::zero());
  t.total_cpu_ += amount;
  t.recent_cpu_ += amount;
  acct_.class_cpu[static_cast<std::size_t>(t.cls())] += amount;
}

Thread* Kernel::running_on(CpuId cpu) const {
  PASCHED_EXPECTS(cpu >= 0 && cpu < ncpus());
  return cpus_[static_cast<std::size_t>(cpu)].current;
}

std::vector<Thread*> Kernel::threads() const {
  std::vector<Thread*> out;
  out.reserve(threads_.size());
  for (const auto& t : threads_) out.push_back(t.get());
  return out;
}

int Kernel::ready_count() const {
  std::size_t n = globalq_.size();
  for (const Cpu& c : cpus_) n += c.runq.size();
  return static_cast<int>(n);
}

int Kernel::cpus_running(ThreadClass cls) const {
  int n = 0;
  for (const Cpu& c : cpus_)
    if (c.current != nullptr && c.current->cls() == cls) ++n;
  return n;
}

}  // namespace pasched::kern
