#include "race/fuzz.hpp"

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "cluster/cluster.hpp"
#include "kern/kernel.hpp"
#include "sim/random.hpp"
#include "util/assert.hpp"

namespace pasched::race {

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
    sh->set_window_jitter(opt.window_jitter);
    install_sink(monitor.get());
    if (opt.plant_cross_shard_write) {
      PASCHED_EXPECTS_MSG(sim.cluster().size() > 1,
                          "the planted fault needs a second node");
      // The regression fault: an event executing on shard 0 reaches
      // straight into the kernel of the first node of block 1 (node 1 on
      // clusters of up to sim::kShardBlocks nodes) instead of posting
      // through ShardedEngine::post. The callout body itself is inert — the
      // *registration* is the cross-shard mutation the auditor must flag.
      kern::Kernel& victim =
          sim.cluster().node(sh->shard_map().first_node(1)).kernel();
      // srclint-ok(PSL401): the planted fault must bypass the post seam — a
      // posted delivery would be legal and the auditor would have nothing to
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
    const std::uint64_t jitter =
        seeder.fork(static_cast<std::uint64_t>(i)).next_u64();
    AuditOptions opt;
    opt.workers = workers;
    opt.window_jitter = jitter;
    const AuditRun run = run_audited(cfg, factory, opt);
    ++out.runs;
    for (const analysis::Diagnostic& d : run.findings)
      out.findings.push_back(d);
    if (run.digest.hash == base.digest.hash &&
        run.digest.elapsed.count() == base.digest.elapsed.count())
      continue;
    analysis::Diagnostic d;
    d.rule = "PSL204";
    d.severity = analysis::Severity::Error;
    d.subject = "window-fuzz";
    std::ostringstream msg;
    msg << "perturbation " << i << " (seed " << seed << ", window jitter "
        << jitter << ") diverged: hash " << std::hex << run.digest.hash
        << " vs baseline " << base.digest.hash << std::dec;
    d.message = msg.str();
    d.fix_hint = "rerun pasched race on this scenario with --seed=" +
                 std::to_string(seed) + " --fuzz-windows=" +
                 std::to_string(i + 1) +
                 " to reproduce, then look for state crossing shards "
                 "outside sim::ShardedEngine::post";
    out.findings.push_back(std::move(d));
  }
  return out;
}

}  // namespace pasched::race
