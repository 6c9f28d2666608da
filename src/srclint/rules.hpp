// PSL401–406: repo-specific architecture and hot-path rules over the
// srclint source model. Each rule encodes a source-level invariant the
// runtime stack (pasched audit/race) can only witness after it is
// violated in an execution — here it is rejected before a run exists.
//
//   PSL401  raw engine access outside the ShardedEngine/EventContext seam
//   PSL402  shard-resident type without ownership annotation discipline
//   PSL403  allocation / locking / throw / blocking inside PASCHED_HOT
//   PSL404  side effects inside vanishing-check macro arguments
//   PSL405  nondeterminism sources in the deterministic core
//   PSL406  thread creation outside the ShardedEngine worker pool
//
// Findings can be silenced per line with `// srclint-ok(PSLnnn): reason`;
// the runner reports how many suppressions were honored so they stay
// auditable.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "srclint/source.hpp"

namespace pasched::srclint {

/// The hot-path contract marker (util/hotpath.hpp) bound to function bodies
/// by PSL403 and PSL601/602/605.
inline constexpr std::string_view kHotMarker = "PASCHED_HOT";

/// What every rule family (PSL401-406 here, contend's PSL501-505, alloc's
/// PSL601-605) shares: one rule-ID filter.
struct RuleSelection {
  /// Restrict findings to these rule IDs (empty = all). Claims ignore it.
  std::vector<std::string> only;

  [[nodiscard]] bool enabled(std::string_view id) const;
};

/// Per-rule scoping. Defaults encode this repository's layout; the fixture
/// tests reuse the same defaults by mirroring the layout under the plant
/// root.
struct RuleConfig {
  /// PSL401: directories whose code may touch sim::Engine directly — the
  /// engine's own subsystem and the harness layers that drive it by design.
  std::vector<std::string> seam_allow = {"src/sim/", "tools/", "tests/",
                                         "bench/", "examples/"};
  /// PSL402: shard-resident classes that must carry a race::Owned tag, and
  /// the subsystems they live in.
  std::vector<std::string> shard_resident = {"Node",        "Kernel",
                                             "Job",         "Task",
                                             "NodeDaemons", "IoService",
                                             "Tracer",      "EventLog"};
  std::vector<std::string> shard_resident_scope = {
      "src/cluster/", "src/kern/", "src/mpi/", "src/daemons/", "src/trace/"};
  /// PSL404: macros whose arguments vanish under -DPASCHED_VALIDATE=OFF.
  std::vector<std::string> vanishing_macros = {
      "PASCHED_CHECK", "PASCHED_CHECK_MSG", "PASCHED_ASSERT_OWNED",
      "PASCHED_ASSERT_DOMAIN"};
  /// PSL405: subsystems whose behaviour feeds traces/digests and must stay
  /// bit-deterministic.
  std::vector<std::string> determinism_scope = {"src/sim/", "src/kern/",
                                                "src/net/", "src/mpi/"};
  /// PSL406: the only places allowed to create threads.
  std::vector<std::string> thread_allow = {"src/sim/shard", "tools/",
                                           "tests/", "bench/", "examples/"};
};

struct RuleStats {
  std::size_t hot_functions = 0;
  std::size_t macro_calls = 0;
  std::size_t suppressions_honored = 0;
};

/// Runs every rule `sel` enables over one file.
[[nodiscard]] std::vector<analysis::Diagnostic> run_rules(
    const SourceFile& file, const RuleConfig& cfg, const RuleSelection& sel,
    RuleStats* stats = nullptr);

}  // namespace pasched::srclint
