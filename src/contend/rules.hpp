// The PSL50x rules over the srclint source model: false-sharing layout
// (PSL503), contended atomic in a hot loop (PSL504) and coarse mutex over
// owned state (PSL505) run per file; the lock-order cycle (PSL501) and
// lock-across-blocking-seam (PSL502) rules run once over the whole-scan
// LockGraph.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "contend/graph.hpp"
#include "contend/locks.hpp"
#include "srclint/rules.hpp"
#include "srclint/source.hpp"

namespace pasched::contend {

struct FileRuleStats {
  int suppressions_honored = 0;
};

/// Runs PSL503/PSL504/PSL505 over one file. Suppressions are honored.
void run_file_rules(const srclint::SourceFile& f, const FileLocks& locks,
                    const ContendConfig& cfg,
                    const srclint::RuleSelection& sel,
                    std::vector<analysis::Diagnostic>& findings,
                    FileRuleStats& stats);

/// Runs PSL501 (one ERROR per lock-order cycle) and PSL502 (one ERROR per
/// lock held across a blocking seam) over the whole-scan graph. `by_path`
/// maps each scanned path to its SourceFile for suppression lookups.
/// Returns the number of cycles, enabled or not.
std::size_t run_graph_rules(
    const LockGraph& g,
    const std::map<std::string, const srclint::SourceFile*>& by_path,
    const srclint::RuleSelection& sel,
    std::vector<analysis::Diagnostic>& findings, FileRuleStats& stats);

}  // namespace pasched::contend
