// pasched scale: the static scalability analyzer for the partitioned
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
//   pasched scale [--scenario=fig3|fig5|both] [--nodes=N]
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
#include "driver.hpp"
#include "scale/runner.hpp"

namespace pasched::tools {

namespace {

/// Analyzes one scenario; returns the exit code contribution (0 or 1).
int run_one(const Scenario& s, const scale::ScaleOptions& opts, bool plant,
            std::ostream& report, std::vector<std::string>& json_reports) {
  std::cout << "scenario " << s.name << ": analyze (workers="
            << s.cfg.parallel << (plant ? ", planted unsound bound" : "")
            << ")..." << std::flush;

  scale::ScaleReport rep;
  if (plant) {
    // Inflate EVERY pairwise claim: allreduce traffic flows through the
    // hub, so inflating a single node-node pair might never be exercised.
    scale::LookaheadMatrix planted = scale::build_lookahead_matrix(
        s.cfg.cluster.fabric, sim::ShardMap(s.cfg.cluster.nodes));
    for (int a = 0; a < planted.shards; ++a)
      for (int b = 0; b < planted.shards; ++b)
        if (a != b) planted.set(a, b, planted.at(a, b) * 4);
    rep = scale::analyze_scenario(s.cfg, s.factory, s.name, opts, &planted);
  } else {
    rep = scale::analyze_scenario(s.cfg, s.factory, s.name, opts);
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

int scale_main(const util::Flags& flags) {
  ScenarioFlags scn;
  scn.tasks_per_node = 8;
  scn.calls = 60;
  scn.workers = 1;
  scn.parse(flags, 2, " (a single shard has no pairs to certify)");
  const bool plant = flags.get_bool("plant-unsound-bound", false);
  scale::ScaleOptions opts;
  opts.target_workers =
      static_cast<int>(flags.get_int("target-workers", opts.target_workers));
  opts.target_speedup = flags.get_double("target-speedup", opts.target_speedup);
  if (opts.target_workers < 1)
    throw util::FlagError("--target-workers must be positive");

  std::ostringstream report;
  std::vector<std::string> json_reports;
  int rc = 0;
  for (const bool prototype : {false, true}) {
    if (!scn.selects(prototype)) continue;
    Scenario s = scn.build(prototype);
    s.cfg.parallel = scn.workers;
    rc = std::max(rc, run_one(s, opts, plant, report, json_reports));
  }

  std::string json = "[\n";
  for (std::size_t i = 0; i < json_reports.size(); ++i)
    json += json_reports[i] + (i + 1 < json_reports.size() ? ",\n" : "");
  json += "]\n";
  rc = util::write_output("pasched-scale", flags.get("report", ""), "report",
                          report.str(), rc);
  rc = util::write_output("pasched-scale", flags.get("json", ""), "json", json,
                          rc);
  if (rc == 0) std::cout << "pasched-scale: PASS\n";
  return rc;
}

}  // namespace pasched::tools
