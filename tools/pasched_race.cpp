// pasched-race: the shard-ownership and determinism auditor for the
// partitioned execution core.
//
// Runs the paper's scenario shapes (fig3 = vanilla kernel, fig5 = prototype
// kernel + co-scheduler) under the partitioned engine with the ownership
// annotation layer armed and a vector-clock monitor on every cross-shard
// seam. Any mutation of shard-owned state from the wrong worker, any
// unordered cross-shard access pair, and any delivery into a shard's past
// becomes a PSL2xx diagnostic with shard/object/epoch attribution.
//
//   ./pasched-race [--scenario=fig3|fig5|both] [--workers=N] [--nodes=N]
//       [--tasks-per-node=N] [--calls=N] [--seed=N]
//
// With --fuzz-windows=N each scenario additionally runs N window
// perturbations: conservative windows are shrunk toward the legal minimum
// through the sim::ChoiceSource seam, and every perturbed run must
// reproduce the unperturbed canonical digest (PSL204 on divergence, with
// the recorded schedule written next to the report for --replay).
//
//   ./pasched-race --fuzz-windows=200 [--report=FILE]
//   ./pasched-race --replay=SCHEDULE_FILE --scenario=fig3
//
// --plant-cross-shard-write injects the CI regression fault: an event on
// shard 0 mutates node 1's kernel without going through the router; the
// auditor must flag it (exit 1). Planted runs force --workers=1 so the
// *logical* violation is caught without a physical data race.
//
// Exit status: 0 = no findings, 1 = PSL2xx ERROR findings, 2 = a model
// invariant is violated, 64 = bad usage.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "apps/aggregate_trace.hpp"
#include "check/check.hpp"
#include "core/presets.hpp"
#include "core/simulation.hpp"
#include "mc/schedule.hpp"
#include "race/fuzz.hpp"
#include "util/flags.hpp"

using namespace pasched;

namespace {

struct Params {
  int nodes = 4;
  int tasks_per_node = 16;
  int calls = 120;
  std::uint64_t seed = 1;
  int workers = 4;
  int fuzz = 0;
  bool plant = false;
  std::string scenario = "both";
  std::string report;
  std::string replay;
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

  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = p.calls;
  at.warmup = sim::Duration::sec(6);
  s.factory = apps::aggregate_trace(at);
  return s;
}

void print_findings(std::ostream& os,
                    const std::vector<analysis::Diagnostic>& findings) {
  for (const analysis::Diagnostic& d : findings) os << "  " << d.str() << "\n";
}

/// Findings across every audited scenario, for --json=FILE.
std::vector<analysis::Diagnostic> g_collected;

std::string json_report(int rc) {
  return "{\n  " + analysis::json_report_header("pasched-race") + "\n" +
         "  \"pass\": " + (rc == 0 ? "true" : "false") + ",\n" +
         "  \"findings\": " + analysis::diagnostics_json(g_collected, 2) +
         "\n}\n";
}

/// Audits one scenario; returns the exit code contribution (0 or 1).
int run_one(const Scenario& s, const Params& p, std::ostream& report) {
  std::cout << "scenario " << s.name << ": audit (workers=" << p.workers
            << ")..." << std::flush;
  report << "== " << s.name << " ==\n";

  std::vector<analysis::Diagnostic> findings;
  if (p.fuzz > 0) {
    const race::FuzzResult fz =
        race::fuzz_windows(s.cfg, s.factory, p.fuzz, p.seed, p.workers);
    std::cout << " " << fz.runs << " runs (baseline + " << p.fuzz
              << " perturbations), base hash=" << std::hex << fz.base_hash
              << std::dec << "\n";
    findings = fz.findings;
    if (fz.diverged) {
      const std::string sched_file =
          std::string("pasched-race.") + s.name + ".failing-schedule";
      // Already failing (PSL204): a lost schedule file keeps exit 1.
      (void)util::write_output("pasched-race", sched_file,
                               "  failing window schedule",
                               fz.failing.serialize(), 1);
      report << "failing schedule:\n" << fz.failing.serialize() << "\n";
    }
  } else {
    race::AuditOptions opt;
    opt.workers = p.plant ? 1 : p.workers;
    opt.plant_cross_shard_write = p.plant;
    const race::AuditRun run = race::run_audited(s.cfg, s.factory, opt);
    std::cout << " hash=" << std::hex << run.digest.hash << std::dec
              << " posts=" << run.stats.posts << " admits=" << run.stats.admits
              << " windows=" << run.stats.windows
              << " horizon_publishes=" << run.stats.horizon_publishes
              << " horizon_waits=" << run.stats.horizon_waits << "\n";
    findings = run.findings;
  }

  print_findings(report, findings);
  g_collected.insert(g_collected.end(), findings.begin(), findings.end());
  if (findings.empty()) {
    std::cout << "  OK: no PSL2xx findings\n";
    report << "clean\n";
    return 0;
  }
  std::cout << "  FINDINGS (" << findings.size() << "):\n";
  print_findings(std::cout, findings);
  return analysis::any_errors(findings) ? 1 : 0;
}

}  // namespace

namespace {

int tool_main(const util::Flags& flags) {
  const std::vector<std::string> typos = flags.unknown(
      {"scenario", "workers", "nodes", "tasks-per-node", "calls", "seed",
       "fuzz-windows", "plant-cross-shard-write", "report", "replay", "json"});
  if (!typos.empty()) {
    std::cerr << "pasched-race: unknown flag(s):";
    for (const std::string& t : typos) std::cerr << " --" << t;
    std::cerr << "\nusage: pasched-race [--scenario=fig3|fig5|both]"
                 " [--workers=N] [--nodes=N] [--tasks-per-node=N] [--calls=N]"
                 " [--seed=N] [--fuzz-windows=N] [--plant-cross-shard-write]"
                 " [--report=FILE] [--replay=SCHEDULE_FILE] [--json=FILE]\n";
    return 64;
  }
  Params p;
  p.nodes = static_cast<int>(flags.get_int("nodes", p.nodes));
  p.tasks_per_node =
      static_cast<int>(flags.get_int("tasks-per-node", p.tasks_per_node));
  p.calls = static_cast<int>(flags.get_int("calls", p.calls));
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  p.workers = static_cast<int>(flags.get_int("workers", p.workers));
  p.fuzz = static_cast<int>(flags.get_int("fuzz-windows", 0));
  p.plant = flags.get_bool("plant-cross-shard-write", false);
  p.scenario = flags.get("scenario", "both");
  p.report = flags.get("report", "");
  p.replay = flags.get("replay", "");
  if (p.nodes < 2 || p.tasks_per_node < 1 || p.calls < 1 || p.workers < 1 ||
      p.fuzz < 0) {
    std::cerr << "pasched-race: --nodes must be >= 2 (the partitioned core "
                 "needs shards to cross) and --tasks-per-node/--calls/"
                 "--workers positive\n";
    return 64;
  }
  if (p.scenario != "fig3" && p.scenario != "fig5" && p.scenario != "both") {
    std::cerr << "pasched-race: --scenario must be fig3, fig5 or both\n";
    return 64;
  }
  if (!p.replay.empty() && p.scenario == "both") {
    std::cerr << "pasched-race: --replay needs a single --scenario\n";
    return 64;
  }

  std::ostringstream report;
  int rc = 0;
  try {
    if (!p.replay.empty()) {
      std::ifstream in(p.replay);
      if (!in) {
        std::cerr << "pasched-race: cannot read " << p.replay << "\n";
        return 64;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      const mc::Schedule sched = mc::Schedule::parse(buf.str());
      const Scenario s = make_scenario(p, p.scenario == "fig5");
      std::cout << "replaying " << sched.size() << " window choices on "
                << s.name << "\n";
      const race::AuditRun run =
          race::replay_schedule(s.cfg, s.factory, sched, p.workers);
      std::cout << "  hash=" << std::hex << run.digest.hash << std::dec
                << "\n";
      print_findings(std::cout, run.findings);
      print_findings(report, run.findings);
      g_collected.insert(g_collected.end(), run.findings.begin(),
                         run.findings.end());
      rc = analysis::any_errors(run.findings) ? 1 : 0;
    } else {
      if (p.scenario != "fig5")
        rc = std::max(rc, run_one(make_scenario(p, false), p, report));
      if (p.scenario != "fig3")
        rc = std::max(rc, run_one(make_scenario(p, true), p, report));
    }
  } catch (const check::CheckError& e) {
    std::cerr << "pasched-race: model invariant violated: " << e.what()
              << "\n";
    return 2;
  }

  const std::string json = json_report(rc);
  rc = util::write_output("pasched-race", p.report, "report", report.str(),
                          rc);
  rc = util::write_output("pasched-race", flags.get("json", ""),
                          "json report", json, rc);
  if (rc == 0) std::cout << "pasched-race: PASS\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_tool("pasched-race", argc, argv, tool_main);
}
