// pasched lint: the offline analysis front-end. Two engines behind one exit
// status:
//
//   * the config linter (analysis/lint.hpp) — checks kernel tunables,
//     co-scheduler parameters, daemon registry, MPI runtime config, and
//     /etc/poe.priority records against the paper's misconfiguration
//     pathologies (rules PSL001–PSL013);
//   * the trace analyzer (analysis/analyzer.hpp) — runs a short
//     aggregate_trace simulation, collects the rich event stream, and mines
//     it for priority-inversion windows, stalled-sender cascades, and
//     wait-for cycles (rules PSL101–PSL103).
//
//   pasched lint                                  # lint every shipped preset
//   pasched lint --list-rules
//   pasched lint --kernel=prototype --cosched=paper
//   pasched lint --scenario=ale3d-naive           # §5.3 misconfiguration
//   pasched lint --scenario=ale3d-tuned           # the favored=41 fix
//   pasched lint --admin=etc/poe.priority
//   pasched lint --trace-run [--trace-calls=N]
//   pasched lint --schedtune --kernel=prototype
//
// Exit status: 0 = no ERROR findings, 1 = at least one ERROR, 64 = bad usage.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/diagnostic.hpp"
#include "analysis/lint.hpp"
#include "apps/aggregate_trace.hpp"
#include "core/presets.hpp"
#include "driver.hpp"
#include "kern/schedtune.hpp"
#include "trace/trace.hpp"

namespace pasched::tools {

namespace {

/// Findings accumulated across every linted label for --json=FILE; the
/// label is folded into the subject so one flat array stays attributable.
std::vector<analysis::Diagnostic> g_collected;
std::string g_json_path;

void collect(const std::string& label,
             const std::vector<analysis::Diagnostic>& diags) {
  for (analysis::Diagnostic d : diags) {
    d.subject = label + ": " + d.subject;
    g_collected.push_back(std::move(d));
  }
}

/// Writes the machine-readable report (shared schema/tool header) on the
/// way out of every lint mode.
int finish(int rc) {
  return util::write_output(
      "pasched-lint", g_json_path, "json report",
      "{\n  " + analysis::json_report_header("pasched-lint") + "\n" +
          "  \"pass\": " + (rc == 0 ? "true" : "false") + ",\n" +
          "  \"findings\": " + analysis::diagnostics_json(g_collected, 2) +
          "\n}\n",
      rc);
}

int report(const std::string& label,
           const std::vector<analysis::Diagnostic>& diags) {
  collect(label, diags);
  if (diags.empty()) {
    std::cout << label << ": clean\n";
    return 0;
  }
  std::cout << label << ":\n";
  for (const analysis::Diagnostic& d : diags) std::cout << "  " << d.str() << "\n";
  return analysis::any_errors(diags) ? 1 : 0;
}

/// The shipped kernel preset `name`; throws util::FlagError for an unknown
/// one.
kern::Tunables kernel_preset(const std::string& name) {
  for (const core::NamedKernelPreset& p : core::named_kernel_presets())
    if (p.name == name) return p.tunables;
  throw util::FlagError("unknown kernel preset '" + name + "'");
}

/// The shipped co-scheduler preset `name`; throws util::FlagError for an
/// unknown one.
core::CoschedConfig cosched_preset(const std::string& name) {
  for (const core::NamedCoschedPreset& p : core::named_cosched_presets())
    if (p.name == name) return p.config;
  throw util::FlagError("unknown cosched preset '" + name + "'");
}

/// Lints every shipped kernel preset alone and crossed with every shipped
/// co-scheduler preset. All of these must be clean — CI runs this mode.
int lint_all_presets(const analysis::RuleSelection& rules) {
  int rc = 0;
  const auto kernels = core::named_kernel_presets();
  const auto cloths = core::named_cosched_presets();
  for (const core::NamedKernelPreset& k : kernels) {
    analysis::LintConfig cfg;
    cfg.tunables = k.tunables;
    rc |= report("preset " + k.name, analysis::lint(cfg, rules));
    for (const core::NamedCoschedPreset& c : cloths) {
      cfg.cosched = c.config;
      rc |= report("preset " + k.name + "+" + c.name,
                   analysis::lint(cfg, rules));
    }
    cfg.cosched.reset();
  }
  return rc;
}

/// The §5.3 ALE3D scenarios: an I/O-dependent workload under the naive
/// benchmark co-scheduling config (favored 30 vs mmfsd 40 — the published
/// mistake) and under the tuned favored-41 fix.
analysis::LintConfig ale3d_scenario(bool tuned) {
  analysis::LintConfig cfg;
  cfg.tunables = core::prototype_kernel();
  cfg.workload_uses_io = true;
  cfg.mpi = mpi::MpiConfig{};
  if (tuned) {
    cfg.cosched = core::io_aware_cosched(cfg.daemons.io.priority);
    cfg.mpi->polling_interval = sim::Duration::sec(400);
  } else {
    cfg.cosched = core::paper_cosched();
  }
  return cfg;
}

int lint_admin_file(const std::string& path,
                    const analysis::RuleSelection& rules) {
  std::ifstream in(path);
  if (!in) throw util::FlagError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  analysis::LintConfig cfg;
  cfg.tunables = core::vanilla_kernel();
  try {
    cfg.admin = core::AdminFile::parse(text.str());
  } catch (const std::logic_error& e) {
    std::cout << path << ":\n  PSL009 ERROR [admin] unparseable: " << e.what()
              << "\n";
    analysis::Diagnostic d;
    d.rule = "PSL009";
    d.severity = analysis::Severity::Error;
    d.subject = path + ": admin";
    d.message = std::string("unparseable: ") + e.what();
    g_collected.push_back(std::move(d));
    return 1;
  }
  return report(path, analysis::lint(cfg, rules));
}

/// Runs a deliberately tight co-scheduling window (so several flips happen
/// in well under a second of simulated time) over the paper's synthetic
/// benchmark on a stock kernel, then mines the event stream.
int run_trace_analysis(int calls, bool verbose) {
  core::SimulationConfig cfg;
  cfg.cluster = cluster::presets::frost(2);
  cfg.cluster.seed = 1;
  cfg.cluster.node.ncpus = 4;
  // Fill every CPU (no daemon-reserve CPU) so daemons genuinely contend
  // with unfavored tasks — the contention Fig. 4's outliers come from.
  cfg.job.ntasks = 8;
  cfg.job.tasks_per_node = 4;
  cfg.job.seed = 1;
  cfg.use_coscheduler = true;
  cfg.cosched = core::paper_cosched();
  cfg.cosched.period = sim::Duration::ms(100);
  cfg.cosched.duty = 0.50;

  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = calls;
  at.warmup = sim::Duration::ms(150);
  core::Simulation sim(cfg, apps::aggregate_trace(at));

  trace::EventLog elog;
  trace::Tracer tracer(/*node_filter=*/-1);
  for (int n = 0; n < sim.cluster().size(); ++n)
    tracer.attach(sim.cluster().node(n).kernel());
  tracer.set_event_log(&elog);
  tracer.enable(sim.engine().now());
  sim.job().set_event_log(&elog);

  const core::SimulationResult result = sim.run();
  std::cout << "trace run: " << (result.completed ? "completed" : "TIMED OUT")
            << " in " << result.elapsed.str() << ", " << elog.size()
            << " events\n";

  analysis::AnalyzerOptions opts;
  opts.min_inversion = sim::Duration::us(100);
  opts.max_findings = verbose ? 16 : 4;
  const analysis::AnalysisReport rep = analysis::analyze(elog.events(), opts);
  std::cout << rep.str();
  collect("trace-run", rep.diagnostics());
  if (!result.completed) return 1;
  return analysis::any_errors(rep.diagnostics()) ? 1 : 0;
}

}  // namespace

int lint_main(const util::Flags& flags) {
  if (flags.get_bool("list-rules", false)) {
    std::cout << analysis::rule_table();
    return 0;
  }

  analysis::RuleSelection rules;
  try {
    rules = analysis::RuleSelection::parse(flags.get("rules", "all"));
  } catch (const std::logic_error& e) {
    throw util::FlagError(std::string(e.what()) + " (--list-rules shows all)");
  }

  const std::string kernel = flags.get("kernel", "");
  const std::string cosched = flags.get("cosched", "");
  const std::string scenario = flags.get("scenario", "");
  const std::string admin = flags.get("admin", "");
  const bool verbose = flags.get_bool("verbose", false);
  g_json_path = flags.get("json", "");

  if (flags.get_bool("schedtune", false)) {
    std::cout << kern::describe_tunables(
        kernel_preset(kernel.empty() ? "prototype" : kernel));
    return 0;
  }

  if (flags.get_bool("trace-run", false))
    return finish(run_trace_analysis(
        static_cast<int>(flags.get_int("trace-calls", 400)), verbose));

  if (!admin.empty()) return finish(lint_admin_file(admin, rules));

  if (!scenario.empty()) {
    if (scenario != "ale3d-naive" && scenario != "ale3d-tuned")
      throw util::FlagError("unknown scenario '" + scenario + "'");
    return finish(report("scenario " + scenario,
                         analysis::lint(ale3d_scenario(scenario == "ale3d-tuned"),
                                        rules)));
  }

  if (!kernel.empty() || !cosched.empty()) {
    std::string label = kernel.empty() ? "vanilla" : kernel;
    analysis::LintConfig cfg;
    cfg.tunables = kernel_preset(label);
    if (!cosched.empty() && cosched != "none") {
      cfg.cosched = cosched_preset(cosched);
      label += "+" + cosched;
    }
    return finish(report(label, analysis::lint(cfg, rules)));
  }

  // Default (and --all-presets): sweep every shipped preset combination.
  return finish(lint_all_presets(rules));
}

}  // namespace pasched::tools
