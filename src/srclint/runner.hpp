// The one source scanner: discovery → one lex per file → PSL401-406
// (srclint/rules), PSL501-505 (contend/{locks,graph,rules}) and PSL601-605
// (alloc/rules) over that SourceFile → one ordered report carrying the
// findings, the cross-TU lock-order graph, and both claim lists the runtime
// ledgers verify (PSL506, PSL606). The tool and the tests share this path.
//
// Frontend seam: SourceFile is the only contract between discovery and the
// rules. Today it is produced by the built-in portable lexer (lex_file);
// a clang LibTooling frontend can replace that producer without touching a
// rule, which is the plan once the toolchain ships clang dev headers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "alloc/ledger.hpp"
#include "alloc/rules.hpp"
#include "analysis/diagnostic.hpp"
#include "contend/ledger.hpp"
#include "contend/locks.hpp"
#include "srclint/rules.hpp"

namespace pasched::srclint {

struct SrclintOptions {
  std::string root = ".";  // tree to scan (repo root or fixture root)
  std::string compile_db;  // optional compile_commands.json
  RuleSelection select;    // one `only` filter for all families
  RuleConfig rules;        // PSL401-406
  contend::ContendConfig contend;  // PSL501-505
  alloc::AllocConfig alloc;        // PSL601-605
};

struct SrclintStats {
  std::size_t files_scanned = 0;
  std::size_t files_in_scope = 0;  // in the contend or alloc scope
  std::size_t functions = 0;       // bodies recovered in alloc-scope files
  std::size_t hot_functions = 0;   // hot-marked bodies (PSL403)
  std::size_t macro_calls = 0;     // vanishing-check calls (PSL404)
  std::size_t acquisitions = 0;
  std::size_t mutex_members = 0;
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  std::size_t cycles = 0;
  std::size_t arena_types = 0;
  std::size_t suppressions_honored = 0;
};

struct SrclintReport {
  std::vector<analysis::Diagnostic> findings;  // sorted by (subject, rule)
  std::vector<contend::SerializationClaim> lock_claims;  // PSL505 sites
  std::vector<alloc::AllocClaim> alloc_claims;           // PSL605 regions
  std::vector<std::string> graph;  // canonical lock-order edge lines
  SrclintStats stats;
  std::string origin;  // discovery origin, see compiledb.hpp

  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
  /// Adds findings (a ledger's refutations) and restores the order.
  void add(std::vector<analysis::Diagnostic> extra);
  /// Folds another scan (a second fixture corpus) into this report.
  void merge(SrclintReport other);
  /// Human-readable report: one finding per line, one PSL605 line per
  /// allocation-free claim, and a summary footer.
  [[nodiscard]] std::string str() const;
  /// Machine-readable report for the CI artifact.
  [[nodiscard]] std::string json() const;
};

/// Scans every discovered file under opts.root.
[[nodiscard]] SrclintReport run_tree(const SrclintOptions& opts);

/// Scans an explicit set of root-relative paths (CLI positional args,
/// fixture tests).
[[nodiscard]] SrclintReport run_files(const SrclintOptions& opts,
                                      const std::vector<std::string>& rels);

}  // namespace pasched::srclint
