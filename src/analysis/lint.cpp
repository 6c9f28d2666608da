#include "analysis/lint.hpp"

#include <utility>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace pasched::analysis {

using sim::Duration;

RuleSelection RuleSelection::parse(const std::string& spec) {
  RuleSelection sel;
  if (spec.empty() || spec == "all") return sel;
  for (const auto& raw : util::split(spec, ',')) {
    const std::string id = util::trim(raw);
    if (id.empty()) continue;
    if (find_rule(id) == nullptr)
      throw std::logic_error("unknown lint rule '" + id + "'");
    sel.ids.push_back(id);
  }
  return sel;
}

bool RuleSelection::selected(const char* id) const {
  if (ids.empty()) return true;
  for (const std::string& s : ids)
    if (s == id) return true;
  return false;
}

namespace {

class Emitter {
 public:
  Emitter(std::vector<Diagnostic>& out, const RuleSelection& sel)
      : out_(out), sel_(sel) {}

  void emit(const char* rule, std::string subject, std::string message,
            std::string fix_hint,
            std::optional<Severity> severity = std::nullopt) {
    if (!sel_.selected(rule)) return;
    const RuleInfo* info = find_rule(rule);
    Diagnostic d;
    d.rule = rule;
    d.severity = severity.value_or(info != nullptr ? info->severity
                                                   : Severity::Warning);
    d.subject = std::move(subject);
    d.message = std::move(message);
    d.fix_hint = std::move(fix_hint);
    out_.push_back(std::move(d));
  }

 private:
  std::vector<Diagnostic>& out_;
  const RuleSelection& sel_;
};

std::string prio(kern::Priority p) { return std::to_string(p); }

}  // namespace

std::vector<Diagnostic> lint(const LintConfig& cfg,
                             const RuleSelection& rules) {
  std::vector<Diagnostic> out;
  Emitter e(out, rules);
  const kern::Tunables& tun = cfg.tunables;
  const Duration tick = tun.tick_interval();

  // PSL001 — the §5.3 I/O-starvation inversion: a favored priority
  // numerically at or below mmfsd's keeps the daemon off the CPU for the
  // whole favored stretch while the job's own I/O waits on it.
  if (cfg.cosched && cfg.workload_uses_io && cfg.daemons_installed &&
      cfg.daemons.io_service) {
    const kern::Priority fav = cfg.cosched->favored;
    const kern::Priority iop = cfg.daemons.io.priority;
    if (fav < iop) {
      e.emit("PSL001", "cosched",
             "favored priority " + prio(fav) +
                 " is numerically below (better than) the I/O daemon's " +
                 prio(iop) +
                 "; an I/O-dependent workload starves the daemon it waits "
                 "on for the whole favored stretch",
             "set favored just above the I/O daemon (e.g. " + prio(iop + 1) +
                 " vs mmfsd at " + prio(iop) + ", the paper's ALE3D fix)");
    } else if (fav == iop) {
      e.emit("PSL001", "cosched",
             "favored priority equals the I/O daemon's (" + prio(fav) +
                 "); the daemon only progresses at timeslice round-robin "
                 "granularity",
             "set favored to " + prio(iop + 1) + " so the I/O daemon always "
                 "preempts the tasks it serves",
             Severity::Warning);
    }
  }

  if (cfg.cosched) {
    const core::CoschedConfig& cs = *cfg.cosched;
    const Duration unfav_share = cs.period - cs.period * cs.duty;
    const Duration fav_stretch = cs.period * cs.duty;

    // PSL002 — unfavored share smaller than one whole tick: timer-driven
    // daemon work batches to tick boundaries, so a sub-tick share rounds
    // down to nothing (the 250 ms big-tick trap).
    if (cs.duty > 0.0 && cs.duty < 1.0 && unfav_share > Duration::zero() &&
        unfav_share < tick) {
      std::ostringstream msg;
      msg << "unfavored share " << unfav_share.str()
          << " is smaller than one tick (" << tick.str()
          << " with big_tick=" << tun.big_tick
          << "); tick-batched daemon wakeups quantize the share away";
      e.emit("PSL002", "cosched", msg.str(),
             "lower the duty cycle or the big-tick multiplier until the "
             "unfavored share spans at least one tick");
    }

    // PSL003 — no unfavored share at all: the duty cycle is the starvation
    // guard, and a favored priority ahead of the daemon band makes the
    // starvation total.
    if (cfg.daemons_installed && unfav_share <= Duration::zero() &&
        cs.favored < kern::kNormalUserBase) {
      e.emit("PSL003", "cosched",
             "duty " + std::to_string(cs.duty) +
                 " leaves no unfavored share while favored priority " +
                 prio(cs.favored) +
                 " outranks every daemon: daemons (and the heartbeats they "
                 "answer) never run on task CPUs",
             "keep duty strictly below 1.0 so each window has an unfavored "
             "share");
    }

    // PSL004 — heartbeat deadline vs. favored stretch: hatsd must complete
    // within its deadline even when parked for the whole favored stretch.
    if (cfg.daemons_installed &&
        cfg.daemons.heartbeat_deadline < fav_stretch) {
      e.emit("PSL004", "daemons",
             "heartbeat deadline " + cfg.daemons.heartbeat_deadline.str() +
                 " is shorter than the favored stretch " + fav_stretch.str() +
                 "; one window can evict the node from group membership",
             "extend the heartbeat deadline beyond period*duty (the paper "
             "extended daemon timeout tolerances)");
    }

    // PSL006 — aligned windows without synchronized clocks drift apart.
    if (cs.align_to_period_boundary && !cs.sync_clocks) {
      e.emit("PSL006", "cosched",
             "window alignment to period boundaries is on but clock "
             "synchronization is off; node-local alignment lets windows "
             "drift apart across the cluster",
             "enable sync_clocks (or disable align_to_period_boundary for "
             "a deliberately unaligned run)");
    }

    // PSL007 — the flipper daemon must outrank its own favored tasks.
    if (cs.self_priority >= cs.favored) {
      e.emit("PSL007", "cosched",
             "co-scheduler daemon priority " + prio(cs.self_priority) +
                 " does not outrank the favored tasks (" + prio(cs.favored) +
                 "); window boundaries cannot preempt a favored task, so "
                 "flips slip",
             "set self_priority numerically below favored (paper: 20 vs "
             "30)");
    }

    // PSL008 — flips are timer callouts, so a period that is not a whole
    // number of ticks lands each boundary mid-tick and the realized duty
    // wobbles.
    if (cs.align_to_period_boundary && tick > Duration::zero() &&
        cs.period % tick != Duration::zero()) {
      e.emit("PSL008", "cosched",
             "period " + cs.period.str() +
                 " is not an integer multiple of the tick interval " +
                 tick.str() + "; window boundaries quantize to ticks and "
                 "the realized duty cycle drifts",
             "pick a period that is a whole number of (big-)ticks");
    }

    // PSL011 — flips to unfavored are reverse pre-emptions.
    if (tun.rt_scheduling && !tun.rt_reverse_preemption) {
      e.emit("PSL011", "tunables",
             "rt_scheduling is on without rt_reverse_preemption; the flip "
             "to unfavored only takes effect at the next tick, stretching "
             "every favored phase",
             "enable rt_reverse_preemption (§3 fix 1)");
    }

    // PSL013 — parameter contract of the external co-scheduler.
    {
      std::vector<std::string> faults;
      auto in_range = [](kern::Priority p) {
        return p >= kern::kBestPriority && p <= kern::kWorstPriority;
      };
      if (!in_range(cs.favored) || !in_range(cs.unfavored) ||
          !in_range(cs.self_priority) || !in_range(cs.detached_base))
        faults.push_back("a priority lies outside [0,127]");
      if (cs.favored >= cs.unfavored)
        faults.push_back("favored " + prio(cs.favored) +
                         " is not numerically below unfavored " +
                         prio(cs.unfavored));
      if (cs.duty <= 0.0 || cs.duty > 1.0)
        faults.push_back("duty " + std::to_string(cs.duty) +
                         " is outside (0,1]");
      if (cs.period <= Duration::zero()) faults.push_back("period is not positive");
      for (const std::string& f : faults)
        e.emit("PSL013", "cosched", f,
               "follow the paper's contract: favored < unfavored "
               "numerically, duty in (0,1], positive period");
    }
  }

  // PSL005 — the progress-engine polling storm.
  if (cfg.mpi && cfg.mpi->progress_engine &&
      cfg.mpi->polling_interval <= Duration::ms(400)) {
    e.emit("PSL005", "mpi",
           "progress-engine polling interval " +
               cfg.mpi->polling_interval.str() +
               " is at (or below) the storm-prone 400 ms default; timer "
               "threads on every CPU perturb each window",
           "raise MP_POLLING_INTERVAL well beyond the window period (the "
           "paper used 400 s)");
  }

  // PSL009 — admin record validity.
  if (cfg.admin) {
    const auto& records = cfg.admin->records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const core::PriorityClass& r = records[i];
      const std::string subject =
          "admin:" + std::to_string(i) + "(" + r.name + ")";
      auto in_range = [](kern::Priority p) {
        return p >= kern::kBestPriority && p <= kern::kWorstPriority;
      };
      if (!in_range(r.favored) || !in_range(r.unfavored))
        e.emit("PSL009", subject, "a priority lies outside [0,127]",
               "use AIX priorities in [0,127]");
      if (r.favored >= r.unfavored)
        e.emit("PSL009", subject,
               "favored " + prio(r.favored) +
                   " is not numerically below unfavored " + prio(r.unfavored),
               "favored must be the numerically lower value");
      if (r.duty <= 0.0 || r.duty > 1.0)
        e.emit("PSL009", subject,
               "duty " + std::to_string(r.duty) + " is outside (0,1]",
               "use a duty fraction in (0,1]");
      if (r.period <= Duration::zero())
        e.emit("PSL009", subject, "period is not positive",
               "use a positive window period");
    }
  }

  // PSL010 — alignment without simultaneity.
  if (tun.cluster_aligned_ticks && !tun.synchronized_ticks) {
    e.emit("PSL010", "tunables",
           "cluster_aligned_ticks is on while synchronized_ticks is off; "
           "staggered ticks cannot be cluster-simultaneous, so alignment "
           "buys nothing",
           "enable synchronized_ticks together with cluster alignment "
           "(§3.2.1)");
  }

  // PSL012 — IPIs slower than the tick.
  if (tun.rt_scheduling && tun.ipi_latency >= tick) {
    e.emit("PSL012", "tunables",
           "ipi_latency " + tun.ipi_latency.str() +
               " is not below the tick interval " + tick.str() +
               "; forced preemption arrives no sooner than the tick would",
           "lower ipi_latency or accept tick-granular preemption without "
           "rt_scheduling");
  }

  return out;
}

}  // namespace pasched::analysis
