#include "core/coscheduler.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pasched::core {

using kern::RunDecision;
using sim::Duration;
using sim::Time;

CoScheduler::CoScheduler(kern::Kernel& kernel, CoschedConfig cfg)
    : kernel_(kernel), cfg_(cfg) {
  PASCHED_EXPECTS(cfg_.duty > 0.0 && cfg_.duty < 1.0);
  PASCHED_EXPECTS(cfg_.period > Duration::zero());
  PASCHED_EXPECTS(cfg_.favored < cfg_.unfavored);
  PASCHED_EXPECTS_MSG(
      cfg_.period >= kernel.tunables().tick_interval() * 2,
      "co-scheduler period must cover at least two kernel ticks");
  kern::ThreadSpec ts;
  ts.name = "cosched";
  ts.cls = kern::ThreadClass::CoScheduler;
  ts.base_priority = cfg_.self_priority;
  ts.fixed_priority = true;
  ts.home_cpu = 0;
  ts.stealable = true;
  thread_ = &kernel_.create_thread(std::move(ts), *this);
}

void CoScheduler::start(Duration unaligned_phase) {
  PASCHED_EXPECTS(!started_);
  started_ = true;
  const Time lnow = kernel_.local_now();
  // First window starts on the next period boundary of the (synchronized)
  // local clock — "the co-scheduler period ends on a second boundary" (§4)
  // — or at this node's arbitrary phase when alignment is off.
  window_start_local_ = cfg_.align_to_period_boundary
                            ? lnow.align_up(cfg_.period)
                            : lnow + Duration::ms(1) + unaligned_phase;
  arm(Action::ToFavored, window_start_local_);
}

void CoScheduler::arm(Action a, Time due_local) {
  kernel_.schedule_callout(thread_->home_cpu(), due_local,
                           [this, a] { on_timer(a); });
}

void CoScheduler::on_timer(Action a) {
  if (shutdown_) return;
  pending_ = a;
  burst_issued_ = false;
  if (thread_->state() == kern::ThreadState::Blocked)
    kernel_.wake(*thread_, thread_->home_cpu());
}

RunDecision CoScheduler::next(Time /*now*/) {
  if (shutdown_) return RunDecision::exit();
  if (pending_ == Action::None) return RunDecision::block();
  if (!burst_issued_) {
    burst_issued_ = true;
    const Duration cost =
        cfg_.flip_cost_base +
        cfg_.flip_cost_per_task * static_cast<std::int64_t>(tasks_.size());
    return RunDecision::compute(cost);
  }
  const Action a = pending_;
  pending_ = Action::None;
  apply(a);
  return RunDecision::block();
}

void CoScheduler::apply(Action a) {
  const kern::CpuId my_cpu = thread_->running_on();
  switch (a) {
    case Action::ToFavored: {
      favored_now_ = true;
      ++stats_.windows;
      for (kern::Thread* t : tasks_) {
        if (t->state() == kern::ThreadState::Done) continue;
        kernel_.set_priority(*t, cfg_.favored, /*fixed=*/true, my_cpu);
        ++stats_.flips;
      }
      // Unfavor at the duty-cycle point of this window (nominal time, so
      // alignment never drifts even if this sweep ran late). The wakeup is
      // a timer callout and therefore lands on a (big-)tick boundary; round
      // the favored stretch *down* to a tick multiple and always leave at
      // least one tick of unfavored time, otherwise big ticks would quantize
      // the daemons' share away entirely (the paper's 5 s / 90% setting is
      // exactly tick-aligned: 4.5 s on a 250 ms tick).
      {
        const Duration tick = kernel_.tunables().tick_interval();
        Duration favored_len = cfg_.period * cfg_.duty;
        favored_len = favored_len - (favored_len % tick);
        favored_len = std::clamp(favored_len, tick, cfg_.period - tick);
        arm(Action::ToUnfavored, window_start_local_ + favored_len);
      }
      break;
    }
    case Action::ToUnfavored: {
      favored_now_ = false;
      for (kern::Thread* t : tasks_) {
        if (t->state() == kern::ThreadState::Done) continue;
        kernel_.set_priority(*t, cfg_.unfavored, /*fixed=*/true, my_cpu);
        ++stats_.flips;
      }
      window_start_local_ = window_start_local_ + cfg_.period;
      arm(Action::ToFavored, window_start_local_);
      break;
    }
    case Action::None:
      break;
  }
}

void CoScheduler::apply_phase_to(kern::Thread& t) {
  if (t.state() == kern::ThreadState::Done) return;
  kernel_.set_priority(t, favored_now_ ? cfg_.favored : cfg_.unfavored,
                       /*fixed=*/true, kern::kExternalActor);
}

void CoScheduler::register_task(kern::Thread& t) {
  if (shutdown_) return;
  if (std::find(tasks_.begin(), tasks_.end(), &t) != tasks_.end()) return;
  tasks_.push_back(&t);
  ++stats_.registered;
  // "As soon as a process registers, it is actively co-scheduled."
  if (started_ && stats_.windows > 0) apply_phase_to(t);
}

void CoScheduler::detach(kern::Thread& t) {
  const auto it = std::find(tasks_.begin(), tasks_.end(), &t);
  if (it == tasks_.end()) return;
  tasks_.erase(it);
  // Back to normal dispatching priority for the I/O phase (§4).
  kernel_.set_priority(t, cfg_.detached_base, /*fixed=*/false,
                       kern::kExternalActor);
}

void CoScheduler::attach(kern::Thread& t) { register_task(t); }

void CoScheduler::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  tasks_.clear();
  if (thread_->state() == kern::ThreadState::Blocked)
    kernel_.wake(*thread_, kern::kExternalActor);  // lets the thread exit
}

// ---------------------------------------------------------------------------

CoschedManager::CoschedManager(cluster::Cluster& cluster, CoschedConfig cfg)
    : cluster_(cluster),
      cfg_(cfg),
      phase_rng_(cluster.config().seed * 2654435761ULL + 99) {
  per_node_.resize(static_cast<std::size_t>(cluster.size()));
  if (cfg_.sync_clocks) sync_residual_ = cluster_.synchronize_clocks();
}

CoScheduler& CoschedManager::node_cosched(kern::NodeId node) {
  auto& slot = per_node_[static_cast<std::size_t>(node)];
  if (!slot) {
    slot = std::make_unique<CoScheduler>(cluster_.node(node).kernel(), cfg_);
    // Without boundary alignment each node's windows sit at whatever phase
    // its daemon happened to start with — model that as uniform phase.
    slot->start(cfg_.align_to_period_boundary
                    ? sim::Duration::zero()
                    : phase_rng_.uniform_dur(sim::Duration::zero(),
                                             cfg_.period));
  }
  return *slot;
}

void CoschedManager::register_task(kern::NodeId node, kern::Thread& t) {
  CoScheduler& cs = node_cosched(node);
  kern::Thread* tp = &t;
  CoScheduler* csp = &cs;
  cluster_.node(node).kernel().schedule_kernel_entry(
      cfg_.pipe_delay, [csp, tp] { csp->register_task(*tp); });
}

void CoschedManager::detach_task(kern::NodeId node, kern::Thread& t) {
  CoScheduler& cs = node_cosched(node);
  kern::Thread* tp = &t;
  CoScheduler* csp = &cs;
  cluster_.node(node).kernel().schedule_kernel_entry(
      cfg_.pipe_delay, [csp, tp] { csp->detach(*tp); });
}

void CoschedManager::attach_task(kern::NodeId node, kern::Thread& t) {
  CoScheduler& cs = node_cosched(node);
  kern::Thread* tp = &t;
  CoScheduler* csp = &cs;
  cluster_.node(node).kernel().schedule_kernel_entry(
      cfg_.pipe_delay, [csp, tp] { csp->attach(*tp); });
}

void CoschedManager::job_ended() {
  for (auto& cs : per_node_)
    if (cs) cs->shutdown();
}

CoschedStats CoschedManager::total_stats() const {
  CoschedStats total;
  for (const auto& cs : per_node_) {
    if (!cs) continue;
    total.windows += cs->stats().windows;
    total.flips += cs->stats().flips;
    total.registered += cs->stats().registered;
  }
  return total;
}

}  // namespace pasched::core
