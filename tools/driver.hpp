// What the `pasched` driver (pasched.cpp) shares with its subcommands: the
// four subcommand bodies and the fig3/fig5 scenario builder.
//
// A body receives flags the driver has already checked against the
// subcommand's known-flag list. It signals bad usage by throwing
// util::FlagError and a model invariant violation by letting
// check::CheckError escape; the driver prints "pasched-<sub>: <message>" and
// exits 64 or 2.
#pragma once

#include <cstdint>
#include <string>

#include "core/simulation.hpp"
#include "mpi/workload.hpp"
#include "util/flags.hpp"

namespace pasched::tools {

int audit_main(const util::Flags& flags);
int lint_main(const util::Flags& flags);
int race_main(const util::Flags& flags);
int srclint_main(const util::Flags& flags);

/// One of the paper's aggregate-trace scenario shapes on the Frost preset:
/// fig3 (vanilla kernel) or fig5 (prototype kernel + co-scheduler). The
/// config runs serially (parallel = 0) until the caller sets `parallel`.
struct Scenario {
  const char* name = "";
  core::SimulationConfig cfg;
  mpi::WorkloadFactory factory;
};

/// --scenario, --nodes, --tasks-per-node, --calls, --seed and --workers.
/// The member initializers are the defaults of a subcommand that does not
/// set its own.
struct ScenarioFlags {
  std::string scenario = "both";  // fig3 | fig5 | both
  int nodes = 4;
  int tasks_per_node = 16;
  int calls = 120;
  std::uint64_t seed = 1;
  int workers = 4;

  /// Overrides the defaults with the flags given. Throws util::FlagError
  /// when --scenario is not fig3, fig5 or both, --nodes is below
  /// `min_nodes` (`why` says why, e.g. " (the partitioned core needs shards
  /// to cross)") or a count is not positive.
  void parse(const util::Flags& flags, int min_nodes, const char* why = "");
  /// True when --scenario selects this shape.
  [[nodiscard]] bool selects(bool prototype) const;
  [[nodiscard]] Scenario build(bool prototype) const;
};

}  // namespace pasched::tools
