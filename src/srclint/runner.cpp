#include "srclint/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <sstream>

#include "contend/graph.hpp"
#include "contend/rules.hpp"
#include "srclint/compiledb.hpp"

namespace pasched::srclint {

using analysis::json_escape;

namespace {

template <class T>
void append(std::vector<T>& to, std::vector<T>& from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

void sort_report(SrclintReport& rep) {
  std::stable_sort(rep.findings.begin(), rep.findings.end(),
                   [](const analysis::Diagnostic& a,
                      const analysis::Diagnostic& b) {
                     return a.subject != b.subject ? a.subject < b.subject
                                                   : a.rule < b.rule;
                   });
  std::stable_sort(rep.lock_claims.begin(), rep.lock_claims.end(),
                   [](const contend::SerializationClaim& a,
                      const contend::SerializationClaim& b) {
                     return a.site != b.site ? a.site < b.site
                                             : a.file < b.file;
                   });
  std::stable_sort(rep.alloc_claims.begin(), rep.alloc_claims.end(),
                   [](const alloc::AllocClaim& a, const alloc::AllocClaim& b) {
                     return a.function != b.function
                                ? a.function < b.function
                                : a.file < b.file;
                   });
  std::sort(rep.graph.begin(), rep.graph.end());
}

}  // namespace

void SrclintReport::add(std::vector<analysis::Diagnostic> extra) {
  append(findings, extra);
  sort_report(*this);
}

void SrclintReport::merge(SrclintReport other) {
  append(findings, other.findings);
  append(lock_claims, other.lock_claims);
  append(alloc_claims, other.alloc_claims);
  append(graph, other.graph);
  SrclintStats& s = stats;
  const SrclintStats& o = other.stats;
  s.files_scanned += o.files_scanned;
  s.files_in_scope += o.files_in_scope;
  s.functions += o.functions;
  s.hot_functions += o.hot_functions;
  s.macro_calls += o.macro_calls;
  s.acquisitions += o.acquisitions;
  s.mutex_members += o.mutex_members;
  s.graph_nodes += o.graph_nodes;
  s.graph_edges += o.graph_edges;
  s.cycles += o.cycles;
  s.arena_types += o.arena_types;
  s.suppressions_honored += o.suppressions_honored;
  if (origin.empty()) origin = std::move(other.origin);
  sort_report(*this);
}

std::string SrclintReport::str() const {
  std::ostringstream os;
  for (const analysis::Diagnostic& d : findings) os << d.str() << "\n";
  // Claims are certifications, not findings — printed in the PSLnnn line
  // format so CI greps see every rule ID, but they never affect clean().
  for (const alloc::AllocClaim& c : alloc_claims)
    os << "PSL605 INFO [" << c.file << ":" << c.line
       << "] allocation-free region certified: `" << c.function
       << "` (runtime ledger verifies; PSL606 on refutation)\n";
  os << "pasched-srclint: " << stats.files_scanned << " files (" << origin
     << "), " << stats.files_in_scope << " in scope, " << stats.functions
     << " functions, " << stats.hot_functions << " hot functions, "
     << stats.macro_calls << " vanishing-check calls, "
     << stats.acquisitions << " acquisitions, " << stats.mutex_members
     << " mutex members, lock graph " << stats.graph_nodes << " nodes / "
     << stats.graph_edges << " edges / " << stats.cycles << " cycles, "
     << stats.arena_types << " arena type"
     << (stats.arena_types == 1 ? "" : "s") << ", " << lock_claims.size()
     << " serialization claim" << (lock_claims.size() == 1 ? "" : "s")
     << ", " << alloc_claims.size() << " allocation-free claim"
     << (alloc_claims.size() == 1 ? "" : "s") << ", "
     << stats.suppressions_honored << " suppressions honored, "
     << findings.size() << " finding" << (findings.size() == 1 ? "" : "s")
     << "\n";
  return os.str();
}

std::string SrclintReport::json() const {
  std::ostringstream os;
  os << "{\n  " << analysis::json_report_header("pasched-srclint") << "\n"
     << "  \"files_scanned\": " << stats.files_scanned << ",\n"
     << "  \"files_in_scope\": " << stats.files_in_scope << ",\n"
     << "  \"origin\": \"" << json_escape(origin) << "\",\n"
     << "  \"functions\": " << stats.functions << ",\n"
     << "  \"hot_functions\": " << stats.hot_functions << ",\n"
     << "  \"vanishing_check_calls\": " << stats.macro_calls << ",\n"
     << "  \"acquisitions\": " << stats.acquisitions << ",\n"
     << "  \"mutex_members\": " << stats.mutex_members << ",\n"
     << "  \"graph_nodes\": " << stats.graph_nodes << ",\n"
     << "  \"graph_edges\": " << stats.graph_edges << ",\n"
     << "  \"cycles\": " << stats.cycles << ",\n"
     << "  \"arena_types\": " << stats.arena_types << ",\n"
     << "  \"suppressions_honored\": " << stats.suppressions_honored
     << ",\n  \"graph\": [";
  for (std::size_t i = 0; i < graph.size(); ++i)
    os << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(graph[i])
       << "\"";
  os << (graph.empty() ? "]" : "\n  ]") << ",\n  \"lock_claims\": [";
  for (std::size_t i = 0; i < lock_claims.size(); ++i) {
    const contend::SerializationClaim& c = lock_claims[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"site\": \""
       << json_escape(c.site) << "\", \"file\": \"" << json_escape(c.file)
       << "\", \"line\": " << c.line << "}";
  }
  os << (lock_claims.empty() ? "]" : "\n  ]") << ",\n  \"alloc_claims\": [";
  for (std::size_t i = 0; i < alloc_claims.size(); ++i) {
    const alloc::AllocClaim& c = alloc_claims[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"function\": \""
       << json_escape(c.function) << "\", \"file\": \""
       << json_escape(c.file) << "\", \"line\": " << c.line << "}";
  }
  os << (alloc_claims.empty() ? "]" : "\n  ]") << ",\n  \"findings\": "
     << analysis::diagnostics_json(findings, 2) << "\n}\n";
  return os.str();
}

SrclintReport run_files(const SrclintOptions& opts,
                        const std::vector<std::string>& rels) {
  SrclintReport rep;
  const std::filesystem::path root(opts.root);

  // Lock extraction needs every in-scope file at once (the cross-TU graph
  // and its suppression lookups), so those SourceFiles stay alive.
  std::vector<SourceFile> lock_files;
  std::vector<contend::FileLocks> locks;
  RuleStats arch;
  contend::FileRuleStats lock_stats;
  alloc::FileRuleStats alloc_stats;
  for (const std::string& rel : rels) {
    SourceFile f = lex_file((root / rel).string(), rel);
    ++rep.stats.files_scanned;
    std::vector<analysis::Diagnostic> ds =
        run_rules(f, opts.rules, opts.select, &arch);
    append(rep.findings, ds);

    const bool lock_scope = opts.contend.in_scope(rel);
    const bool alloc_scope = opts.alloc.in_scope(rel);
    if (lock_scope || alloc_scope) ++rep.stats.files_in_scope;
    if (alloc_scope)
      alloc::run_file_rules(f, opts.alloc, opts.select, rep.findings,
                            rep.alloc_claims, alloc_stats);
    if (lock_scope) {
      contend::FileLocks fl = contend::extract_locks(f, opts.contend);
      rep.stats.mutex_members += fl.mutex_members.size();
      for (const contend::FunctionLocks& fn : fl.functions)
        rep.stats.acquisitions += fn.acquisitions.size();
      contend::run_file_rules(f, fl, opts.contend, opts.select, rep.findings,
                              rep.lock_claims, lock_stats);
      locks.push_back(std::move(fl));
      lock_files.push_back(std::move(f));
    }
  }

  std::map<std::string, const SourceFile*> by_path;
  for (const SourceFile& f : lock_files) by_path[f.path] = &f;
  const contend::LockGraph graph(locks);
  rep.graph = graph.edge_lines();
  rep.stats.graph_nodes = graph.node_count();
  rep.stats.graph_edges = graph.edges().size();
  rep.stats.cycles = contend::run_graph_rules(graph, by_path, opts.select,
                                              rep.findings, lock_stats);

  rep.stats.functions = alloc_stats.functions;
  rep.stats.hot_functions = arch.hot_functions;
  rep.stats.macro_calls = arch.macro_calls;
  rep.stats.arena_types = alloc_stats.arena_types;
  rep.stats.suppressions_honored =
      arch.suppressions_honored +
      static_cast<std::size_t>(lock_stats.suppressions_honored +
                               alloc_stats.suppressions_honored);
  sort_report(rep);
  return rep;
}

SrclintReport run_tree(const SrclintOptions& opts) {
  const FileSet fset = discover_files(opts.root, opts.compile_db);
  SrclintReport rep = run_files(opts, fset.rel_paths);
  rep.origin = fset.origin;
  return rep;
}

}  // namespace pasched::srclint
