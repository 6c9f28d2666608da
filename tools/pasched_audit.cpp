// pasched audit: the reproducibility and self-consistency gate.
//
// For each kernel preset it runs the paper's synthetic Allreduce benchmark
// TWICE with the same seed, folds every scheduling-visible artifact — the
// full per-CPU occupancy trace, scheduler event counts, per-node accounting,
// and the job's timing statistics — into a single hash, and fails if the two
// runs differ in any bit. It then audits every node with check::Auditor
// (CPU-time conservation, run-queue consistency) and the engine's structural
// audit. CI runs this to prove the simulator stays deterministic.
//
//   pasched audit [--nodes=4] [--tasks-per-node=16] [--calls=120]
//       [--seed=1] [--verbose]
//
// With --parallel-equivalence it instead proves the partitioned execution
// mode faithful: each scenario runs serially (one shard, no windows),
// --parallel=1 and --parallel=<workers>, and the three canonical history
// digests (scheduling intervals + analyzer events + per-rank finish times,
// truncated at job completion) must be identical.
//
//   pasched audit --parallel-equivalence [--workers=8] [--nodes=4] ...
//
// Exit status: 0 = reproducible and consistent, 1 = divergence, 2 = a model
// invariant is violated, 64 = bad usage.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "apps/channels.hpp"
#include "check/audit.hpp"
#include "check/check.hpp"
#include "core/equivalence.hpp"
#include "driver.hpp"
#include "trace/trace.hpp"
#include "util/fnv1a.hpp"

namespace pasched::tools {

namespace {

/// One row of the --json=FILE report, filled per audited scenario.
struct ScenarioRow {
  std::string name;
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  bool completed = false;
  bool ok = false;
};

std::vector<ScenarioRow> g_rows;

/// Writes the --json=FILE report; returns `rc`, or the failed write's
/// status (util::write_output).
int write_json(const std::string& path, const char* mode, int rc) {
  std::ostringstream out;
  out << "{\n  " << analysis::json_report_header("pasched-audit") << "\n"
      << "  \"mode\": \"" << mode << "\",\n"
      << "  \"pass\": " << (rc == 0 ? "true" : "false") << ",\n"
      << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const ScenarioRow& r = g_rows[i];
    out << "    {\"name\": \"" << analysis::json_escape(r.name)
        << "\", \"hash\": \"0x" << std::hex << r.hash << std::dec
        << "\", \"events\": " << r.events
        << ", \"completed\": " << (r.completed ? "true" : "false")
        << ", \"ok\": " << (r.ok ? "true" : "false") << "}"
        << (i + 1 < g_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return util::write_output("pasched-audit", path, "json report", out.str(),
                            rc);
}

struct RunDigest {
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  bool completed = false;
  bool invariants_ok = false;
  std::string invariant_error;
};

/// Runs the scenario serially (parallel = 0).
RunDigest run_scenario(const ScenarioFlags& f, bool prototype, bool verbose) {
  const Scenario s = f.build(prototype);
  core::Simulation sim(s.cfg, s.factory);

  // One tracer observes every node; recording from t=0 captures the full
  // occupancy history, which is the strongest determinism witness we have.
  trace::Tracer tracer(/*node_filter=*/-1);
  for (int n = 0; n < sim.cluster().size(); ++n)
    tracer.attach(sim.cluster().node(n).kernel());
  tracer.enable(sim.engine().now());

  const core::SimulationResult result = sim.run();

  RunDigest d;
  d.events = result.events;
  d.completed = result.completed;

  util::Fnv1a h;
  h.mix_int(result.elapsed.count());
  h.mix(result.events);
  h.mix(result.completed ? 1 : 0);
  for (const trace::Interval& iv : tracer.intervals()) {
    h.mix_int(iv.begin.count());
    h.mix_int(iv.end.count());
    h.mix_int(iv.node);
    h.mix_int(iv.cpu);
    h.mix_int(iv.thread->tid());
    h.mix_str(iv.thread->name());
  }
  h.mix(tracer.counts().dispatches);
  h.mix(tracer.counts().preemptions);
  h.mix(tracer.counts().ticks);
  h.mix(tracer.counts().ipis);
  for (int n = 0; n < sim.cluster().size(); ++n) {
    const kern::Accounting& a = sim.cluster().node(n).kernel().accounting();
    for (const sim::Duration dur : a.class_cpu) h.mix_int(dur.count());
    h.mix_int(a.tick_cpu.count());
    h.mix_int(a.busy_cpu.count());
    h.mix_int(a.idle_cpu.count());
    h.mix(a.ticks_taken);
    h.mix(a.ipis_sent);
    h.mix(a.preemptions);
    h.mix(a.dispatches);
  }
  const mpi::ChannelStats& ch = sim.job().channel(apps::kChanAllreduce);
  h.mix(ch.all_us.count());
  h.mix_double(ch.all_us.mean());
  h.mix_double(ch.all_us.max());
  for (const double us : ch.recorded_us) h.mix_double(us);
  d.hash = h.value();

  // Self-consistency: engine structure plus every node's conservation and
  // run-queue invariants at the quiescent end-of-run point.
  d.invariants_ok = true;
  try {
    sim.engine().check_consistent();
    for (int n = 0; n < sim.cluster().size(); ++n) {
      const kern::Kernel& k = sim.cluster().node(n).kernel();
      check::Auditor::verify_conservation(k);
      check::Auditor::verify_runqueues(k);
      if (verbose) {
        std::cout << "  node " << n << ": "
                  << check::Auditor::conservation(k).str() << "\n";
      }
    }
  } catch (const check::CheckError& e) {
    d.invariants_ok = false;
    d.invariant_error = e.what();
  }
  return d;
}

/// The execution-mode equivalence gate: one shard vs --parallel=1 vs
/// --parallel=<workers>, on the fig3 (vanilla) and fig5 (prototype +
/// co-scheduler) scenario shapes. The partitioned runs execute chained
/// windows, so any window-schedule dependence in the workload shows
/// up as a divergence from the one-shard history.
int run_parallel_equivalence(const ScenarioFlags& f) {
  int rc = 0;
  for (const bool prototype : {false, true}) {
    Scenario s = f.build(prototype);
    core::SimulationConfig& cfg = s.cfg;

    std::cout << "scenario " << s.name << ": one shard..." << std::flush;
    cfg.parallel = 0;
    const core::CanonicalDigest serial = core::run_canonical(cfg, s.factory);
    std::cout << " parallel=1..." << std::flush;
    cfg.parallel = 1;
    const core::CanonicalDigest par1 = core::run_canonical(cfg, s.factory);
    std::cout << " parallel=" << f.workers << "..." << std::flush;
    cfg.parallel = f.workers;
    const core::CanonicalDigest parn = core::run_canonical(cfg, s.factory);

    std::cout << "\n  one shard  hash=" << std::hex << serial.hash << std::dec
              << " completed=" << serial.completed
              << " events=" << serial.events << "\n  parallel=1 hash="
              << std::hex << par1.hash << std::dec
              << " completed=" << par1.completed << " events=" << par1.events
              << "\n  parallel=" << f.workers << " hash=" << std::hex
              << parn.hash << std::dec << " completed=" << parn.completed
              << " events=" << parn.events << "\n";
    ScenarioRow row;
    row.name = s.name;
    row.hash = serial.hash;
    row.events = serial.events;
    row.completed = serial.completed && par1.completed && parn.completed;
    if (!row.completed) {
      std::cout << "  FAIL: a mode did not run the job to completion\n";
      g_rows.push_back(row);
      rc = 1;
      continue;
    }
    if (serial.hash != par1.hash || par1.hash != parn.hash ||
        serial.elapsed.count() != par1.elapsed.count() ||
        par1.elapsed.count() != parn.elapsed.count()) {
      std::cout << "  FAIL: execution modes diverged\n";
      g_rows.push_back(row);
      rc = 1;
      continue;
    }
    row.ok = true;
    g_rows.push_back(row);
    std::cout << "  OK: all three execution modes are bit-identical\n";
  }
  return rc;
}

}  // namespace

int audit_main(const util::Flags& flags) {
  ScenarioFlags f;
  f.workers = 8;
  f.parse(flags, 1);
  const bool verbose = flags.get_bool("verbose", false);
  const std::string json_path = flags.get("json", "");

  if (flags.get_bool("parallel-equivalence", false)) {
    const int rc = write_json(json_path, "parallel-equivalence",
                              run_parallel_equivalence(f));
    if (rc == 0) std::cout << "pasched-audit: PASS (parallel equivalence)\n";
    return rc;
  }

  int rc = 0;
  for (const bool prototype : {false, true}) {
    const char* name = prototype ? "prototype+cosched" : "vanilla";
    std::cout << "scenario " << name << ": run 1..." << std::flush;
    const RunDigest a = run_scenario(f, prototype, verbose);
    std::cout << " run 2..." << std::flush;
    const RunDigest b = run_scenario(f, prototype, verbose);
    std::cout << "\n  events=" << a.events << " completed=" << a.completed
              << " hash=" << std::hex << a.hash << std::dec << "\n";

    ScenarioRow row;
    row.name = name;
    row.hash = a.hash;
    row.events = a.events;
    row.completed = a.completed;
    if (a.hash != b.hash || a.events != b.events) {
      std::cout << "  FAIL: runs diverged (second hash=" << std::hex << b.hash
                << std::dec << ", events=" << b.events << ")\n";
      g_rows.push_back(row);
      rc = rc == 0 ? 1 : rc;
      continue;
    }
    if (!a.invariants_ok || !b.invariants_ok) {
      std::cout << "  FAIL: invariant violated: "
                << (a.invariants_ok ? b.invariant_error : a.invariant_error)
                << "\n";
      g_rows.push_back(row);
      rc = 2;
      continue;
    }
    row.ok = true;
    g_rows.push_back(row);
    std::cout << "  OK: bit-identical and self-consistent\n";
  }
  rc = write_json(json_path, "reproducibility", rc);
  if (rc == 0) std::cout << "pasched-audit: PASS\n";
  return rc;
}

}  // namespace pasched::tools
