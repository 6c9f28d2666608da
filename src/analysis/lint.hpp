// The configuration linter: statically checks a run configuration — kernel
// tunables, co-scheduler parameters, daemon registry, MPI runtime config,
// and /etc/poe.priority admin records — against the paper's
// misconfiguration pathologies *before* any simulation runs. Rule IDs,
// severities, and paper references live in analysis/diagnostic.hpp.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/admin.hpp"
#include "core/coscheduler.hpp"
#include "daemons/registry.hpp"
#include "kern/tunables.hpp"
#include "mpi/config.hpp"

namespace pasched::analysis {

/// The lintable view of one run configuration. Optional members are simply
/// not checked when absent (a kernel-preset lint has no MPI runtime; a
/// plain benchmark has no admin file).
struct LintConfig {
  kern::Tunables tunables;
  std::optional<core::CoschedConfig> cosched;
  daemons::RegistryConfig daemons;
  bool daemons_installed = true;
  std::optional<mpi::MpiConfig> mpi;
  std::optional<core::AdminFile> admin;
  /// True when the workload performs I/O through the node's I/O daemon
  /// (ALE3D-style). PSL001 — the §5.3 inversion — only applies then: for
  /// pure-collective benchmarks, favoring tasks over mmfsd is the paper's
  /// own setting.
  bool workload_uses_io = false;
};

/// Which rules to run. Empty `ids` = all rules.
struct RuleSelection {
  std::vector<std::string> ids;

  [[nodiscard]] static RuleSelection all() { return {}; }
  /// Parses "all" or a comma-separated ID list ("PSL001,PSL004"). Throws
  /// std::logic_error on an unknown rule ID.
  [[nodiscard]] static RuleSelection parse(const std::string& spec);
  [[nodiscard]] bool selected(const char* id) const;
};

/// Runs the selected rules; diagnostics come back in rule-ID order.
[[nodiscard]] std::vector<Diagnostic> lint(
    const LintConfig& cfg, const RuleSelection& rules = RuleSelection::all());

}  // namespace pasched::analysis
