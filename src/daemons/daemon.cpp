#include "daemons/daemon.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pasched::daemons {

using sim::Duration;
using sim::Time;

Daemon::Daemon(kern::Kernel& kernel, DaemonSpec spec, sim::Rng rng,
               kern::CpuId first_cpu)
    : kernel_(kernel), spec_(std::move(spec)), rng_(rng) {
  PASCHED_EXPECTS(spec_.workers >= 1);
  PASCHED_EXPECTS(spec_.period > Duration::zero());
  PASCHED_EXPECTS(spec_.burst_median > Duration::zero());
  for (int i = 0; i < spec_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->parent = this;
    w->index = i;
    kern::ThreadSpec ts;
    ts.name = spec_.workers == 1
                  ? spec_.name
                  : spec_.name + "[" + std::to_string(i) + "]";
    ts.cls = kern::ThreadClass::Daemon;
    ts.base_priority = spec_.priority;
    ts.fixed_priority = true;
    ts.home_cpu = (first_cpu + i) % kernel_.ncpus();
    ts.stealable = true;
    w->thread = &kernel_.create_thread(std::move(ts), *w);
    workers_.push_back(std::move(w));
  }
}

void Daemon::start() {
  Duration first = spec_.first_due;
  if (first < Duration::zero())
    first = rng_.uniform_dur(Duration::zero(), spec_.period);
  const Time base_local = kernel_.local_now() + first;
  for (auto& w : workers_) schedule_activation(*w, base_local);
}

void Daemon::schedule_activation(Worker& w, Time due_local) {
  w.due_at = due_local;
  Worker* wp = &w;
  kernel_.schedule_callout(w.thread->home_cpu(), due_local,
                           [this, wp] { activate(*wp); });
}

Duration Daemon::draw_burst(const Worker& w, Time now_local) {
  double scale = 1.0;
  if (spec_.accumulates && ever_ran_) {
    // Work denied or delayed piles up: scale with elapsed time since the
    // last completed activation (≥ 1 period => ≥ nominal work).
    const double elapsed =
        static_cast<double>((now_local - last_completion_local_).count());
    const double nominal = static_cast<double>(spec_.period.count());
    scale = std::clamp(elapsed / nominal, 1.0, spec_.accumulation_cap);
  }
  if (ever_ran_ && spec_.cold_fault_factor > 0.0 &&
      now_local - last_completion_local_ >= spec_.cold_threshold) {
    scale *= 1.0 + spec_.cold_fault_factor;
  }
  const double median_ns =
      static_cast<double>(spec_.burst_median.count()) /
      static_cast<double>(spec_.workers);
  const double ns = rng_.lognormal_med(median_ns, spec_.burst_sigma) * scale;
  (void)w;
  return std::max(Duration::us(1), Duration::ns(static_cast<std::int64_t>(ns)));
}

void Daemon::activate(Worker& w) {
  // Exactly one activation is outstanding per worker (the next one is only
  // scheduled when this one completes), so the thread must be idle here.
  PASCHED_ASSERT(w.thread->state() == kern::ThreadState::Blocked);
  w.burst_issued = false;
  w.pending = true;
  ++stats_.activations;
  // The callout runs in tick context on the worker's home CPU.
  kernel_.wake(*w.thread, w.thread->home_cpu());
}

kern::RunDecision Daemon::Worker::next(Time /*now*/) {
  if (!burst_issued) {
    burst_issued = true;
    // The burst is sized when the daemon finally gets the CPU: work denied
    // in the meantime has piled up (§3.1.3's deliberate effect).
    current_burst = parent->draw_burst(*this, parent->kernel_.local_now());
    return kern::RunDecision::compute(current_burst);
  }
  parent->on_worker_done(*this, parent->kernel_.local_now());
  return kern::RunDecision::block();
}

void Daemon::on_worker_done(Worker& w, Time /*now*/) {
  const Time lnow = kernel_.local_now();
  w.pending = false;
  stats_.total_burst += w.current_burst;
  ever_ran_ = true;
  last_completion_local_ = lnow;
  const Duration delay = lnow - w.due_at;
  stats_.max_completion_delay = std::max(stats_.max_completion_delay, delay);
  if (spec_.deadline > Duration::zero()) {
    if (delay > spec_.deadline) {
      // A completion N deadlines late is equivalent to N missed heartbeats
      // in a row — membership services count absence, not tardiness.
      const auto equiv = static_cast<std::uint64_t>(
          std::max<std::int64_t>(1, delay / spec_.deadline));
      stats_.deadline_misses += equiv;
      consecutive_misses_ += equiv;
      stats_.max_consecutive_misses =
          std::max(stats_.max_consecutive_misses, consecutive_misses_);
    } else {
      consecutive_misses_ = 0;
    }
  }
  // Next activation: nominally one period after the *scheduled* time, but
  // never in the past (missed activations coalesce; accumulation covers the
  // lost work).
  const Time next_due =
      std::max(w.due_at + rng_.jittered(spec_.period, spec_.period_jitter),
               lnow + Duration::us(1));
  schedule_activation(w, next_due);
}

double Daemon::duty_fraction() const noexcept {
  return static_cast<double>(spec_.burst_median.count()) /
         static_cast<double>(spec_.period.count());
}

sim::Duration Daemon::worst_pending_delay() const {
  if (spec_.deadline <= Duration::zero()) return Duration::zero();
  const Time lnow = kernel_.local_now();
  Duration worst = Duration::zero();
  for (const auto& w : workers_) {
    if (!w->pending) continue;
    worst = std::max(worst, lnow - w->due_at);
  }
  return worst;
}

bool Daemon::evicted(std::uint64_t tolerance) const noexcept {
  if (stats_.max_consecutive_misses > tolerance) return true;
  // A daemon that has been *unable to finish at all* for several deadlines
  // is just as dead as one that repeatedly missed them ("the only way to
  // recover control was to reboot the node", §4).
  if (spec_.deadline > Duration::zero()) {
    const Duration pending = worst_pending_delay();
    if (pending > spec_.deadline * static_cast<std::int64_t>(tolerance + 1))
      return true;
  }
  return false;
}

}  // namespace pasched::daemons
