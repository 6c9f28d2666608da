// Per-file allocation & memory-layout rules for pasched-srclint
// (PSL601–PSL605), over the srclint token/structural model. The
// hot scope a rule guards is the union of PASCHED_HOT-annotated function
// bodies and the configured event-lifecycle functions (matched by their
// qualified FunctionDef names), so the engine's per-event core is covered
// even where a function is not annotated yet. PSL606 is the runtime half
// (alloc/ledger.hpp) and has no static rule here.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "alloc/ledger.hpp"
#include "analysis/diagnostic.hpp"
#include "srclint/model.hpp"
#include "srclint/rules.hpp"
#include "srclint/source.hpp"

namespace pasched::alloc {

/// Tunables for the analyzer. Defaults describe this repo's event core;
/// fixture corpora reuse them unchanged (fixtures mirror the src/ layout).
struct AllocConfig {
  /// Path prefixes in scope. Allocation in tests/bench/tools harness code
  /// is not an event-hot-path concern.
  std::vector<std::string> scope = {"src/"};
  /// The arena-residency contract marker audited by PSL604.
  std::string arena_marker = "PASCHED_ARENA";
  /// Qualified names of per-event lifecycle functions that are hot scope
  /// even without a PASCHED_HOT marker (belt-and-suspenders: the engine's
  /// event path stays covered if an annotation is dropped).
  std::vector<std::string> lifecycle_functions = {
      "Engine::schedule_at",     "Engine::cancel",
      "Engine::fire_next",       "Engine::fire_item",
      "Engine::acquire_slot",    "Engine::release_slot",
      "Engine::next_event_time", "Engine::run_before"};
  /// Types whose class bodies PSL603 audits for cache-layout hazards
  /// (owning/indirect members in event- or shard-resident values).
  std::vector<std::string> layout_types = {"HeapItem", "Slot",
                                           "CrossNodeEvent"};
  [[nodiscard]] bool in_scope(const std::string& rel_path) const;
};

/// Per-file counters the tree runner folds into its report.
struct FileRuleStats {
  std::size_t functions = 0;
  std::size_t arena_types = 0;
  int suppressions_honored = 0;
};

/// Runs PSL601–PSL604 on one file, appending findings, and emits one
/// PSL605 AllocClaim per hot-marked function whose body carries no PSL601/
/// PSL602 hit at all — suppressed hits also forfeit the claim: a waiver
/// silences the finding but cannot certify the region allocation-free.
void run_file_rules(const srclint::SourceFile& f, const AllocConfig& cfg,
                    const srclint::RuleSelection& sel,
                    std::vector<analysis::Diagnostic>& findings,
                    std::vector<AllocClaim>& claims, FileRuleStats& stats);

}  // namespace pasched::alloc
