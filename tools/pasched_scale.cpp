// pasched-scale: the static scalability analyzer for the partitioned
// execution core.
//
// Two halves per scenario (fig3 = vanilla kernel, fig5 = prototype kernel +
// co-scheduler):
//
//  - Static: the per-shard-pair guaranteed-lookahead matrix, computed from
//    the fabric topology alone and compared against the single global bound
//    the executor uses today. Emitted as a machine-readable certificate for
//    a per-pair window planner; a RunMonitor on the cross-shard delivery
//    seam certifies every actual delivery against it (PSL303 ERROR when a
//    claim is unsound).
//  - Trace: work/span critical path over the happens-before graph (the
//    speedup no executor can beat) and per-window event accounting through
//    the barrier-cost model (the speedup this executor will deliver).
//
// Findings: PSL301 lookahead collapse, PSL302 barrier-dominated windows,
// PSL303 unsound lookahead claim, PSL304 shard load imbalance, PSL305 hub
// serialization, PSL306 speedup ceiling below target.
//
//   ./pasched-scale [--scenario=fig3|fig5|both] [--nodes=N]
//       [--tasks-per-node=N] [--calls=N] [--seed=N] [--workers=N]
//       [--target-workers=N] [--target-speedup=X]
//       [--report=FILE] [--json=FILE]
//
// The analyzed executor runs the per-pair window planner, kWindowBatch
// chained windows per sync round; the report's `rounds` is its count of
// global synchronizations (CI gates the fig5 figure against a recorded
// count for the retired one-window-per-round schedule). When the
// validation build can install a contention ledger, the barrier-cost model
// prices rounds with the *measured* per-round barrier wait instead of the
// default constant (reported as barrier_cost_source = "measured").
//
// --plant-unsound-bound inflates every matrix claim 4x before the run: real
// deliveries then undercut the planted certificate and the monitor must
// report PSL303 (exit 1). This is the CI regression for the soundness seam.
//
// Exit status: 0 = clean or warnings only, 1 = PSL3xx ERROR findings,
// 2 = a model invariant is violated, 64 = bad usage.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "apps/aggregate_trace.hpp"
#include "check/check.hpp"
#include "core/presets.hpp"
#include "core/simulation.hpp"
#include "scale/runner.hpp"
#include "util/flags.hpp"

using namespace pasched;

namespace {

struct Params {
  int nodes = 4;
  int tasks_per_node = 8;
  int calls = 60;
  std::uint64_t seed = 1;
  int workers = 1;
  bool plant = false;
  std::string scenario = "both";
  std::string report;
  std::string json;
  scale::ScaleOptions opts;
};

struct Scenario {
  const char* name;
  core::SimulationConfig cfg;
  mpi::WorkloadFactory factory;
};

Scenario make_scenario(const Params& p, bool prototype) {
  Scenario s;
  s.name = prototype ? "fig5-prototype+cosched" : "fig3-vanilla";
  s.cfg.cluster = cluster::presets::frost(p.nodes);
  s.cfg.cluster.seed = p.seed;
  s.cfg.cluster.node.tunables =
      prototype ? core::prototype_kernel() : core::vanilla_kernel();
  s.cfg.job.ntasks = p.nodes * p.tasks_per_node;
  s.cfg.job.tasks_per_node = p.tasks_per_node;
  s.cfg.job.seed = p.seed;
  s.cfg.use_coscheduler = prototype;
  s.cfg.cosched = core::paper_cosched();
  s.cfg.parallel = p.workers;

  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = p.calls;
  at.warmup = sim::Duration::sec(6);
  s.factory = apps::aggregate_trace(at);
  return s;
}

/// Analyzes one scenario; returns the exit code contribution (0 or 1).
int run_one(const Scenario& s, const Params& p, std::ostream& report,
            std::vector<std::string>& json_reports) {
  std::cout << "scenario " << s.name << ": analyze (workers=" << p.workers
            << (p.plant ? ", planted unsound bound" : "") << ")..."
            << std::flush;

  scale::ScaleReport rep;
  if (p.plant) {
    // Inflate EVERY pairwise claim: allreduce traffic flows through the
    // hub, so inflating a single node-node pair might never be exercised.
    scale::LookaheadMatrix planted = scale::build_lookahead_matrix(
        s.cfg.cluster.fabric, s.cfg.cluster.nodes);
    for (int a = 0; a < planted.shards; ++a)
      for (int b = 0; b < planted.shards; ++b)
        if (a != b) planted.set(a, b, planted.at(a, b) * 4);
    rep = scale::analyze_scenario(s.cfg, s.factory, s.name, p.opts, &planted);
  } else {
    rep = scale::analyze_scenario(s.cfg, s.factory, s.name, p.opts);
  }

  std::cout << " windows=" << rep.windows.n_windows()
            << " posts=" << rep.posts_checked
            << " ceiling=" << rep.predicted_max_speedup() << "x\n";
  report << rep.str() << "\n";
  json_reports.push_back(rep.json());

  const auto findings = rep.diagnostics();
  if (findings.empty()) {
    std::cout << "  OK: no PSL3xx findings\n";
    return 0;
  }
  std::cout << "  FINDINGS (" << findings.size() << "):\n";
  for (const analysis::Diagnostic& d : findings)
    std::cout << "    " << d.str() << "\n";
  return analysis::any_errors(findings) ? 1 : 0;
}

}  // namespace

namespace {

int tool_main(const util::Flags& flags) {
  const std::vector<std::string> typos = flags.unknown(
      {"scenario", "workers", "nodes", "tasks-per-node", "calls", "seed",
       "target-workers", "target-speedup", "plant-unsound-bound", "report",
       "json"});
  if (!typos.empty()) {
    std::cerr << "pasched-scale: unknown flag(s):";
    for (const std::string& t : typos) std::cerr << " --" << t;
    std::cerr << "\nusage: pasched-scale [--scenario=fig3|fig5|both]"
                 " [--nodes=N] [--tasks-per-node=N] [--calls=N] [--seed=N]"
                 " [--workers=N] [--target-workers=N] [--target-speedup=X]"
                 " [--plant-unsound-bound] [--report=FILE] [--json=FILE]\n";
    return 64;
  }
  Params p;
  p.nodes = static_cast<int>(flags.get_int("nodes", p.nodes));
  p.tasks_per_node =
      static_cast<int>(flags.get_int("tasks-per-node", p.tasks_per_node));
  p.calls = static_cast<int>(flags.get_int("calls", p.calls));
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  p.workers = static_cast<int>(flags.get_int("workers", p.workers));
  p.plant = flags.get_bool("plant-unsound-bound", false);
  p.scenario = flags.get("scenario", "both");
  p.report = flags.get("report", "");
  p.json = flags.get("json", "");
  p.opts.target_workers =
      static_cast<int>(flags.get_int("target-workers", p.opts.target_workers));
  p.opts.target_speedup =
      flags.get_double("target-speedup", p.opts.target_speedup);
  if (p.nodes < 2 || p.tasks_per_node < 1 || p.calls < 1 || p.workers < 1 ||
      p.opts.target_workers < 1) {
    std::cerr << "pasched-scale: --nodes must be >= 2 (a single shard has "
                 "no pairs to certify) and --tasks-per-node/--calls/"
                 "--workers/--target-workers positive\n";
    return 64;
  }
  if (p.scenario != "fig3" && p.scenario != "fig5" && p.scenario != "both") {
    std::cerr << "pasched-scale: --scenario must be fig3, fig5 or both\n";
    return 64;
  }

  std::ostringstream report;
  std::vector<std::string> json_reports;
  int rc = 0;
  try {
    if (p.scenario != "fig5")
      rc = std::max(rc,
                    run_one(make_scenario(p, false), p, report, json_reports));
    if (p.scenario != "fig3")
      rc = std::max(rc,
                    run_one(make_scenario(p, true), p, report, json_reports));
  } catch (const check::CheckError& e) {
    std::cerr << "pasched-scale: model invariant violated: " << e.what()
              << "\n";
    return 2;
  }

  std::string json = "[\n";
  for (std::size_t i = 0; i < json_reports.size(); ++i)
    json += json_reports[i] + (i + 1 < json_reports.size() ? ",\n" : "");
  json += "]\n";
  rc = util::write_output("pasched-scale", p.report, "report", report.str(),
                          rc);
  rc = util::write_output("pasched-scale", p.json, "json", json, rc);
  if (rc == 0) std::cout << "pasched-scale: PASS\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("pasched-scale", argc, argv, tool_main);
}
