// pasched mc: the bounded schedule-space model checker front-end. Explores
// every same-timestamp event ordering, daemon arrival phase, and tick
// stagger of a small scenario (see --list-configs) up to a depth/run
// budget, checking four oracles per interleaving: safety (engine + kernel
// invariants and the CPU-time conservation audit at every quiescent
// point), bounded liveness (every Ready thread dispatched within a
// window), completion at the horizon (lost wakeups), and cross-run outcome
// divergence.
//
//   pasched mc --config=clean                     # certify exhaustively
//   pasched mc --config=lost-wakeup --shrink      # find + minimize
//   pasched mc --config=starvation --schedule-out=cex.sched
//   pasched mc --config=starvation --replay=cex.sched
//   pasched mc --list-configs
//
// Exit status: 0 = certified clean, 1 = violation found, 2 = no violation
// but the budget clipped exploration (NOT a certificate), 64 = bad usage.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "driver.hpp"
#include "mc/configs.hpp"
#include "mc/explorer.hpp"

namespace pasched::tools {

namespace {

/// Machine-readable result for --json=FILE: the shared schema/tool header,
/// the run mode and verdict, exploration stats when present, and the
/// violation (oracle + message) when one was found. Returns `rc`, or the
/// failed write's status (util::write_output).
int write_json(const std::string& path, const std::string& config,
               const char* mode, const char* verdict,
               const mc::ExploreStats* stats, const mc::Violation* v,
               int rc) {
  std::ostringstream out;
  out << "{\n  " << analysis::json_report_header("pasched-mc") << "\n"
      << "  \"config\": \"" << analysis::json_escape(config) << "\",\n"
      << "  \"mode\": \"" << mode << "\",\n"
      << "  \"verdict\": \"" << verdict << "\",\n";
  if (stats != nullptr)
    out << "  \"runs\": " << stats->runs << ",\n"
        << "  \"steps\": " << stats->steps << ",\n"
        << "  \"branches\": " << stats->branches << ",\n"
        << "  \"dpor_skips\": " << stats->dpor_skips << ",\n"
        << "  \"visited_prunes\": " << stats->visited_prunes << ",\n"
        << "  \"clipped\": " << (stats->clipped ? "true" : "false") << ",\n";
  if (v != nullptr)
    out << "  \"violation\": {\"oracle\": \"" << mc::to_string(v->oracle)
        << "\", \"message\": \"" << analysis::json_escape(v->message)
        << "\"}\n";
  else
    out << "  \"violation\": null\n";
  out << "}\n";
  return util::write_output("pasched-mc", path, "json report", out.str(), rc);
}

void print_stats(const mc::ExploreStats& s) {
  std::cout << "  runs=" << s.runs << " steps=" << s.steps
            << " branches=" << s.branches << " dpor-skips=" << s.dpor_skips
            << " visited-prunes=" << s.visited_prunes << "\n"
            << "  reduction ratio (naive/explored branches): ";
  std::cout.setf(std::ios::fixed);
  std::cout.precision(2);
  std::cout << s.reduction_ratio() << "\n";
  std::cout.unsetf(std::ios::fixed);
}

int report_violation(const mc::Violation& v, mc::Explorer& ex, bool shrink,
                     const std::string& out_path, const std::string& config) {
  std::cout << "VIOLATION (" << mc::to_string(v.oracle) << "): " << v.message
            << "\n";
  mc::Schedule cex = v.schedule;
  if (shrink) {
    cex = ex.shrink(cex, v.oracle);
    std::cout << "counterexample (shrunk " << v.schedule.size() << " -> "
              << cex.size() << " choices, " << cex.deviations()
              << " non-default):\n";
  } else {
    std::cout << "counterexample (" << cex.size() << " choices, "
              << cex.deviations() << " non-default):\n";
  }
  std::istringstream lines(cex.str());
  std::string line;
  while (std::getline(lines, line)) std::cout << "  " << line << "\n";
  // Status 0 stands for the write alone: the run itself has already failed
  // (exit 1) whether or not the counterexample reaches disk.
  if (!out_path.empty() &&
      util::write_output("pasched-mc", out_path, "schedule",
                         "# config: " + config + "\n" + cex.serialize(),
                         0) == 0)
    std::cout << "  replay with pasched mc --config=" << config
              << " --replay=" << out_path
              << " or pasched lint --trace-run --schedule=" << out_path
              << "\n";
  return 1;
}

}  // namespace

int mc_main(const util::Flags& flags) {
  if (flags.get_bool("list-configs", false)) {
    for (const mc::NamedModel& m : mc::model_zoo())
      std::cout << m.name << " — " << m.description << "\n";
    return 0;
  }

  const std::string config = flags.get("config", "");
  if (config.empty())
    throw util::FlagError("--config=NAME required (--list-configs shows all)");
  mc::ModelFactory factory = mc::find_model(config);
  if (!factory)
    throw util::FlagError("unknown config '" + config +
                          "' (--list-configs shows all)");

  mc::ExploreOptions opts;
  opts.max_runs = static_cast<std::size_t>(flags.get_int("max-runs", 20000));
  opts.max_depth = static_cast<std::size_t>(flags.get_int("depth", 256));
  const long long window_us = flags.get_int("window", -1);
  if (window_us >= 0) opts.liveness_window = sim::Duration::us(window_us);
  const double tol = flags.get_double("tolerance", -1.0);
  if (tol >= 0.0) opts.divergence_tolerance = tol;
  opts.reduce = !flags.get_bool("no-reduce", false);
  opts.prune = !flags.get_bool("no-prune", false);
  const bool shrink = flags.get_bool("shrink", false);
  const std::string out_path = flags.get("schedule-out", "");
  const std::string replay_path = flags.get("replay", "");
  const std::string json_path = flags.get("json", "");

  mc::Explorer explorer(factory, opts);

  if (!replay_path.empty()) {
    const mc::Schedule sched = read_schedule(replay_path);
    std::cout << "replaying " << sched.size() << " choices against '"
              << config << "'\n";
    const mc::RunRecord rec = explorer.run_schedule(sched);
    if (rec.violation) {
      std::cout << "VIOLATION (" << mc::to_string(rec.violation->oracle)
                << "): " << rec.violation->message << "\n";
      return write_json(json_path, config, "replay", "violation", nullptr,
                        &*rec.violation, 1);
    }
    std::cout << "replay clean (outcome " << rec.outcome << "s, "
              << rec.events.size() << " events)\n";
    return write_json(json_path, config, "replay", "clean", nullptr, nullptr,
                      0);
  }

  std::cout << "exploring '" << config << "' (max " << opts.max_runs
            << " runs, depth " << opts.max_depth << ", reduce="
            << (opts.reduce ? "on" : "off") << ", prune="
            << (opts.prune ? "on" : "off") << ")\n";
  const mc::ExploreResult res = explorer.explore();
  print_stats(res.stats);
  if (flags.get_bool("verbose", false))
    std::cout << "  outcome range: [" << res.min_outcome << "s, "
              << res.max_outcome << "s]\n";
  if (res.violation) {
    (void)write_json(json_path, config, "explore", "violation", &res.stats,
                     &*res.violation, 1);
    return report_violation(*res.violation, explorer, shrink, out_path,
                            config);
  }
  if (res.stats.clipped) {
    std::cout << "no violation found, but the budget clipped exploration — "
                 "NOT a certificate\n";
    return write_json(json_path, config, "explore", "clipped", &res.stats,
                      nullptr, 2);
  }
  std::cout << "certified: all interleavings within the horizon satisfy "
               "every oracle\n";
  return write_json(json_path, config, "explore", "certified", &res.stats,
                    nullptr, 0);
}

}  // namespace pasched::tools
