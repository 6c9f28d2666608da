#include "scale/runner.hpp"

#include <utility>
#include <vector>

#include "analysis/hb.hpp"
#include "contend/ledger.hpp"
#include "scale/monitor.hpp"
#include "scale/workspan.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/seam.hpp"

namespace pasched::scale {

namespace {

/// Per-round barrier cost measured by the contention ledger: the average
/// wait a worker paid per arrive_and_wait crossing, times the window
/// protocol's two crossings per sync round. Returns < 0 when the run
/// recorded no barrier crossing (nothing to measure).
[[nodiscard]] double measured_barrier_cost_ns(
    const contend::LedgerReport& lrep) {
  std::uint64_t wait_ns = 0;
  std::uint64_t acquires = 0;
  for (const contend::SiteSummary& s : lrep.sites) {
    if (s.kind != util::SeamKind::Barrier) continue;
    wait_ns += s.wait_ns;
    acquires += s.acquires;
  }
  if (acquires == 0) return -1.0;
  return 2.0 * static_cast<double>(wait_ns) / static_cast<double>(acquires);
}

}  // namespace

ScaleReport analyze_scenario(const core::SimulationConfig& cfg,
                             const mpi::WorkloadFactory& factory,
                             std::string scenario_name,
                             const ScaleOptions& opts,
                             const LookaheadMatrix* planted) {
  PASCHED_EXPECTS_MSG(cfg.parallel >= 1,
                      "pasched-scale needs the partitioned executor "
                      "(cfg.parallel >= 1)");

  ScaleReport rep;
  rep.scenario = std::move(scenario_name);
  rep.options = opts;
  core::Simulation sim(cfg, factory);
  PASCHED_EXPECTS(sim.sharded() != nullptr);
  rep.matrix = planted != nullptr
                   ? *planted
                   : build_lookahead_matrix(cfg.cluster.fabric,
                                            sim.sharded()->shard_map());

  // Same trace plumbing as core::run_canonical: a whole-run tracer feeding
  // one EventLog from every node's kernel plus the job's MPI layer.
  trace::Tracer tracer(-1);
  trace::EventLog elog;
  for (int n = 0; n < sim.cluster().size(); ++n)
    tracer.attach(sim.cluster().node(n).kernel());
  tracer.set_event_log(&elog);
  sim.job().set_event_log(&elog);
  tracer.enable(sim.engine().now());

  RunMonitor monitor(rep.matrix, *sim.sharded());
  sim.sharded()->set_monitor(&monitor);

  // Measure c_barrier while certifying: if no other seam observer is
  // installed (and this is a validation build — seams are uninstrumented
  // otherwise), hang the contention ledger on the run and price the window
  // model with the barrier cost this host actually paid, not the default.
  contend::Ledger ledger;
  bool ledger_installed = false;
#if PASCHED_VALIDATE_ENABLED
  if (util::seam_observer() == nullptr) {
    util::install_seam_observer(&ledger);
    ledger_installed = true;
  }
#endif

  const core::SimulationResult res = sim.run();
  monitor.finalize();
  if (ledger_installed) {
    util::install_seam_observer(nullptr);
    const double measured = measured_barrier_cost_ns(ledger.report());
    if (measured >= 0.0) {
      rep.options.model.barrier_cost_ns = measured;
      rep.barrier_cost_source = "measured";
    }
  }
  rep.barrier_cost_ns_used = rep.options.model.barrier_cost_ns;

  const sim::PlannerStats ps = sim.sharded()->planner_stats();
  rep.rounds = ps.rounds;
  rep.chained_windows = ps.windows;
  rep.coalesced_windows = ps.coalesced;
  rep.ring_posts = ps.ring_posts;
  rep.ring_overflows = ps.ring_overflows;

  rep.completed = res.completed;
  rep.elapsed = res.elapsed;
  rep.events = res.events;
  rep.events_at_completion = res.events_at_completion;

  rep.posts_checked = monitor.posts_checked();
  rep.soundness_violations = monitor.violations();
  rep.min_observed_slack = monitor.min_observed_slack();
  rep.soundness = monitor.soundness_findings();
  rep.windows = monitor.windows();

  // Work/span over the history below T_c — the same truncation the
  // equivalence digest uses, so serial and partitioned runs analyze the
  // identical event set. Clock-free build: the DP needs only program order
  // and cross_pred edges, not O(events x threads) vector clocks.
  const sim::Time tc =
      res.completed ? sim.job().completion_time() : sim::Time::max();
  std::vector<trace::Event> slice;
  slice.reserve(elog.events().size());
  for (const trace::Event& e : elog.events())
    if (e.t < tc) slice.push_back(e);
  const analysis::HbGraph g =
      analysis::HbGraph::build(std::move(slice), /*with_clocks=*/false);
  rep.workspan = work_span(g);

  rep.predicted_speedup_window_model =
      rep.options.model.predicted_speedup(rep.windows, opts.target_workers);
  SpeedupModel free_barriers = rep.options.model;
  free_barriers.barrier_cost_ns = 0.0;
  rep.predicted_speedup_no_barrier =
      free_barriers.predicted_speedup(rep.windows, opts.target_workers);

  return rep;
}

}  // namespace pasched::scale
