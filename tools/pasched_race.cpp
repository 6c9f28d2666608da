// pasched race: the shard-ownership and determinism auditor for the
// partitioned execution core.
//
// Runs the paper's scenario shapes (fig3 = vanilla kernel, fig5 = prototype
// kernel + co-scheduler) under the partitioned engine with the ownership
// annotation layer armed and a vector-clock monitor on every cross-shard
// seam. Any mutation of shard-owned state from the wrong worker, any
// unordered cross-shard access pair, and any delivery into a shard's past
// becomes a PSL2xx diagnostic with shard/object/epoch attribution.
//
//   pasched race [--scenario=fig3|fig5|both] [--workers=N] [--nodes=N]
//       [--tasks-per-node=N] [--calls=N] [--seed=N]
//
// With --fuzz-windows=N each scenario additionally runs N window
// perturbations: conservative windows are shrunk toward the legal minimum
// by seeded window jitter, and every perturbed run must reproduce the
// unperturbed canonical digest. A divergence is a PSL204 naming the
// perturbation index and --seed; the perturbations are a pure function of
// the seed, so the same --scenario/--seed with --fuzz-windows set past that
// index reproduces it.
//
//   pasched race --fuzz-windows=200 [--report=FILE]
//
// --plant-cross-shard-write injects the CI regression fault: an event on
// shard 0 mutates the kernel of block 1's first node (node 1 at the default
// sizes) without going through ShardedEngine::post; the auditor must flag it
// (exit 1). Planted runs force --workers=1 so the *logical* violation is
// caught without a physical data race.
//
// Exit status: 0 = no findings, 1 = PSL2xx ERROR findings, 2 = a model
// invariant is violated, 64 = bad usage.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "driver.hpp"
#include "race/fuzz.hpp"

namespace pasched::tools {

namespace {

struct Params {
  ScenarioFlags scn;
  int fuzz = 0;
  bool plant = false;
  std::string report;
};

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
  std::cout << "scenario " << s.name << ": audit (workers=" << p.scn.workers
            << ")..." << std::flush;
  report << "== " << s.name << " ==\n";

  std::vector<analysis::Diagnostic> findings;
  if (p.fuzz > 0) {
    const race::FuzzResult fz =
        race::fuzz_windows(s.cfg, s.factory, p.fuzz, p.scn.seed,
                           p.scn.workers);
    std::cout << " " << fz.runs << " runs (baseline + " << p.fuzz
              << " perturbations), base hash=" << std::hex << fz.base_hash
              << std::dec << "\n";
    findings = fz.findings;
  } else {
    race::AuditOptions opt;
    opt.workers = p.plant ? 1 : p.scn.workers;
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

int race_main(const util::Flags& flags) {
  Params p;
  p.scn.parse(flags, 2, " (the partitioned core needs shards to cross)");
  p.fuzz = static_cast<int>(flags.get_int("fuzz-windows", 0));
  p.plant = flags.get_bool("plant-cross-shard-write", false);
  p.report = flags.get("report", "");
  if (p.fuzz < 0) throw util::FlagError("--fuzz-windows must be >= 0");

  std::ostringstream report;
  int rc = 0;
  for (const bool prototype : {false, true})
    if (p.scn.selects(prototype))
      rc = std::max(rc, run_one(p.scn.build(prototype), p, report));

  const std::string json = json_report(rc);
  rc = util::write_output("pasched-race", p.report, "report", report.str(),
                          rc);
  rc = util::write_output("pasched-race", flags.get("json", ""),
                          "json report", json, rc);
  if (rc == 0) std::cout << "pasched-race: PASS\n";
  return rc;
}

}  // namespace pasched::tools
