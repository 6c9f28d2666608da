// pasched: the one analyzer binary. `pasched <subcommand> [flags]` runs
//
//   audit    determinism + execution-mode equivalence gate (pasched_audit.cpp)
//   lint     config linter + trace analyzer (pasched_lint.cpp)
//   race     shard-ownership + determinism auditor (pasched_race.cpp)
//   srclint  source scanner + runtime allocation ledger (pasched_srclint.cpp)
//
// The driver owns the plumbing every subcommand shares: it rejects flags
// the subcommand does not know (a typo'd --seed must not "pass" the wrong
// scenario) and maps util::FlagError to exit 64 and a top-level
// check::CheckError to exit 2. A missing or unknown subcommand is bad usage
// too (exit 64).
#include <array>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/aggregate_trace.hpp"
#include "check/check.hpp"
#include "core/presets.hpp"
#include "driver.hpp"

namespace pasched::tools {

void ScenarioFlags::parse(const util::Flags& flags, int min_nodes,
                          const char* why) {
  scenario = flags.get("scenario", scenario);
  nodes = static_cast<int>(flags.get_int("nodes", nodes));
  tasks_per_node =
      static_cast<int>(flags.get_int("tasks-per-node", tasks_per_node));
  calls = static_cast<int>(flags.get_int("calls", calls));
  seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<long long>(seed)));
  workers = static_cast<int>(flags.get_int("workers", workers));
  if (nodes < min_nodes || tasks_per_node < 1 || calls < 1 || workers < 1)
    throw util::FlagError("--nodes must be >= " + std::to_string(min_nodes) +
                          why +
                          " and --tasks-per-node/--calls/--workers positive");
  if (scenario != "fig3" && scenario != "fig5" && scenario != "both")
    throw util::FlagError("--scenario must be fig3, fig5 or both");
}

bool ScenarioFlags::selects(bool prototype) const {
  return scenario == "both" || (scenario == "fig5") == prototype;
}

Scenario ScenarioFlags::build(bool prototype) const {
  Scenario s;
  s.name = prototype ? "fig5-prototype+cosched" : "fig3-vanilla";
  s.cfg.cluster = cluster::presets::frost(nodes);
  s.cfg.cluster.seed = seed;
  s.cfg.cluster.node.tunables =
      prototype ? core::prototype_kernel() : core::vanilla_kernel();
  s.cfg.job.ntasks = nodes * tasks_per_node;
  s.cfg.job.tasks_per_node = tasks_per_node;
  s.cfg.job.seed = seed;
  s.cfg.use_coscheduler = prototype;
  s.cfg.cosched = core::paper_cosched();

  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = calls;
  at.warmup = sim::Duration::sec(6);
  s.factory = apps::aggregate_trace(at);
  return s;
}

namespace {

struct Subcommand {
  std::string_view name;
  std::vector<std::string> known_flags;
  /// Printed after "usage: "; further lines start with 7 spaces.
  std::string_view usage;
  int (*body)(const util::Flags&);
};

const std::array<Subcommand, 4>& subcommands() {
  static const std::array<Subcommand, 4> table{{
      {"audit",
       {"nodes", "tasks-per-node", "calls", "seed", "verbose",
        "parallel-equivalence", "workers", "json"},
       "pasched audit [--nodes=N] [--tasks-per-node=N] [--calls=N]"
       " [--seed=N] [--verbose] [--parallel-equivalence [--workers=N]]"
       " [--json=FILE]\n",
       audit_main},
      {"lint",
       {"list-rules", "rules", "all-presets", "kernel", "cosched", "scenario",
        "admin", "schedtune", "trace-run", "trace-calls", "verbose", "json"},
       "pasched lint [--list-rules] [--rules=all|IDs] [--all-presets]\n"
       "       [--kernel=vanilla|prototype] [--cosched=paper|io-aware|none]\n"
       "       [--scenario=ale3d-naive|ale3d-tuned] [--admin=FILE]"
       " [--schedtune]\n"
       "       [--trace-run] [--trace-calls=N] [--verbose] [--json=FILE]\n",
       lint_main},
      {"race",
       {"scenario", "workers", "nodes", "tasks-per-node", "calls", "seed",
        "fuzz-windows", "plant-cross-shard-write", "report", "json"},
       "pasched race [--scenario=fig3|fig5|both] [--workers=N] [--nodes=N]"
       " [--tasks-per-node=N] [--calls=N] [--seed=N] [--fuzz-windows=N]"
       " [--plant-cross-shard-write] [--report=FILE] [--json=FILE]\n",
       race_main},
      {"srclint",
       {"root", "compile-db", "only", "report", "json", "graph",
        "list-rules", "plant", "fixtures", "ledger", "nodes", "workers",
        "calls", "seed", "max-hot-window-allocs"},
       "pasched srclint [--root=DIR] [--compile-db=FILE]"
       " [--only=PSLnnn[,...]] [--report=FILE] [--json=FILE] [--graph]"
       " [--list-rules] [files...]\n"
       "       pasched srclint --ledger [--nodes=N] [--workers=N] [--calls=N]"
       " [--seed=N] [--max-hot-window-allocs=N]\n"
       "       pasched srclint --plant [--fixtures=DIR] [files...]\n",
       srclint_main},
  }};
  return table;
}

int usage_error(std::string_view problem) {
  std::cerr << "pasched: " << problem << "\nusage: ";
  const char* lead = "";
  for (const Subcommand& s : subcommands()) {
    std::cerr << lead << s.usage;
    lead = "       ";
  }
  return 64;
}

/// Runs `sub` on its own argv, whose argv[0] is the subcommand name (Flags
/// skips it like a program name).
int run(const Subcommand& sub, int argc, const char* const* argv) {
  const std::string tool = "pasched-" + std::string(sub.name);
  try {
    const util::Flags flags(argc, argv);
    const std::vector<std::string> typos = flags.unknown(sub.known_flags);
    if (!typos.empty()) {
      std::cerr << tool << ": unknown flag(s):";
      for (const std::string& t : typos) std::cerr << " --" << t;
      std::cerr << "\nusage: " << sub.usage;
      return 64;
    }
    return sub.body(flags);
  } catch (const util::FlagError& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return 64;
  } catch (const check::CheckError& e) {
    std::cerr << tool << ": model invariant violated: " << e.what() << "\n";
    return 2;
  }
}

int dispatch(int argc, const char* const* argv) {
  if (argc < 2) return usage_error("missing subcommand");
  const std::string_view name = argv[1];
  for (const Subcommand& sub : subcommands())
    if (sub.name == name) return run(sub, argc - 1, argv + 1);
  return usage_error("unknown subcommand '" + std::string(name) + "'");
}

}  // namespace

}  // namespace pasched::tools

int main(int argc, char** argv) {
  return pasched::tools::dispatch(argc, argv);
}
