#include "race/fuzz.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "cluster/cluster.hpp"
#include "kern/kernel.hpp"
#include "util/assert.hpp"

namespace pasched::race {

std::size_t RecordingRandomSource::choose(std::size_t n, const char* tag) {
  PASCHED_EXPECTS(n >= 1);
  const auto pick = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  trace_.push_back(Choice{tag, n, pick});
  return pick;
}

namespace {

/// Clears the process-wide violation sink on every exit path: the Monitor it
/// points at dies with run_audited's scope.
class SinkClear {
 public:
  SinkClear() = default;
  ~SinkClear() { install_sink(nullptr); }
  SinkClear(const SinkClear&) = delete;
  SinkClear& operator=(const SinkClear&) = delete;
};

}  // namespace

AuditRun run_audited(const core::SimulationConfig& cfg,
                     const mpi::WorkloadFactory& factory,
                     const AuditOptions& opt) {
  PASCHED_EXPECTS(opt.workers >= 1);
  core::SimulationConfig c = cfg;
  if (c.parallel < 1) c.parallel = opt.workers;

  std::unique_ptr<Monitor> monitor;
  const SinkClear clear;
  AuditRun out;
  out.digest = core::run_canonical(c, factory, [&](core::Simulation& sim) {
    sim::ShardedEngine* sh = sim.sharded();
    PASCHED_EXPECTS_MSG(sh != nullptr,
                        "pasched-race requires partitioned execution");
    monitor = std::make_unique<Monitor>(sh->partitions());
    sh->set_monitor(monitor.get());
    if (opt.window_choice != nullptr)
      sh->set_window_choice(opt.window_choice);
    install_sink(monitor.get());
    if (opt.plant_cross_shard_write) {
      PASCHED_EXPECTS_MSG(sim.cluster().size() > 1,
                          "the planted fault needs a second node");
      // The regression fault: an event executing on shard 0 reaches
      // straight into the kernel of the first node of block 1 (node 1 on
      // clusters of up to sim::kShardBlocks nodes) instead of posting
      // through the router. The callout body itself is inert — the
      // *registration* is the cross-shard mutation the auditor must flag.
      kern::Kernel& victim =
          sim.cluster().node(sh->shard_map().first_node(1)).kernel();
      // srclint-ok(PSL401): the planted fault must bypass the router — a
      // routed post would be legal and the auditor would have nothing to
      // catch.
      sh->engine_of(0).schedule_at(
          sh->engine_of(0).now() + opt.plant_at, [&victim] {
            victim.schedule_callout(0, victim.local_now(), [] {});
          });
    }
  });
  out.findings = monitor->findings();
  out.stats = monitor->stats();
  return out;
}

FuzzResult fuzz_windows(const core::SimulationConfig& cfg,
                        const mpi::WorkloadFactory& factory, int iterations,
                        std::uint64_t seed, int workers) {
  PASCHED_EXPECTS(iterations >= 1);
  FuzzResult out;

  AuditOptions base_opt;
  base_opt.workers = workers;
  const AuditRun base = run_audited(cfg, factory, base_opt);
  out.base_hash = base.digest.hash;
  out.findings = base.findings;
  ++out.runs;

  const sim::Rng seeder(seed);
  for (int i = 0; i < iterations; ++i) {
    RecordingRandomSource source(
        seeder.fork(static_cast<std::uint64_t>(i)).next_u64());
    AuditOptions opt;
    opt.workers = workers;
    opt.window_choice = &source;
    const AuditRun run = run_audited(cfg, factory, opt);
    ++out.runs;
    for (const analysis::Diagnostic& d : run.findings)
      out.findings.push_back(d);
    if (run.digest.hash == base.digest.hash &&
        run.digest.elapsed.count() == base.digest.elapsed.count())
      continue;
    if (!out.diverged) {
      out.diverged = true;
      out.failing = source.trace();
    }
    analysis::Diagnostic d;
    d.rule = "PSL204";
    d.severity = analysis::Severity::Error;
    d.subject = "window-fuzz";
    std::ostringstream msg;
    msg << "perturbation " << i << " (seed " << seed << ") diverged: hash "
        << std::hex << run.digest.hash << " vs baseline " << base.digest.hash
        << std::dec << " over " << source.trace().size()
        << " recorded window choices";
    d.message = msg.str();
    d.fix_hint =
        "replay the recorded schedule with pasched-race --replay to "
        "reproduce, then look for state crossing shards outside the router";
    out.findings.push_back(std::move(d));
  }
  return out;
}

AuditRun replay_schedule(const core::SimulationConfig& cfg,
                         const mpi::WorkloadFactory& factory,
                         const Schedule& schedule, int workers) {
  GuidedSource source(schedule);
  AuditOptions opt;
  opt.workers = workers;
  opt.window_choice = &source;
  return run_audited(cfg, factory, opt);
}

}  // namespace pasched::race
