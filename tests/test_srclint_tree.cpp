// Whole-tree gates for `pasched srclint`: the repository itself must scan
// clean (every PSL4xx-6xx family is CI-enforced, so a regression here is a
// build failure), and the planted fixture corpus must trip every PSL40x
// rule — both directions of the gate, the same pair CI asserts via the
// tool binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "srclint/compiledb.hpp"
#include "srclint/runner.hpp"

using namespace pasched;

namespace {

srclint::SrclintReport scan_tree(const std::string& root) {
  srclint::SrclintOptions opts;
  opts.root = root;
  return srclint::run_tree(opts);
}

}  // namespace

TEST(SrclintTree, RepositoryScansClean) {
  const srclint::SrclintReport rep = scan_tree(PASCHED_REPO_ROOT);
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
  // Sanity: the scan actually covered the tree (a discovery regression that
  // found nothing would also "pass" the emptiness check).
  EXPECT_GT(rep.stats.files_scanned, 100u);
  // The hot-path contract is load-bearing: the engine/shard/kernel
  // annotations must be visible to PSL403.
  EXPECT_GE(rep.stats.hot_functions, 20u);
  EXPECT_GT(rep.stats.macro_calls, 0u);
}

TEST(SrclintTree, PlantedCorpusTripsEveryRule) {
  const srclint::SrclintReport rep =
      scan_tree(std::string(PASCHED_REPO_ROOT) + "/tests/srclint/fixtures");
  EXPECT_TRUE(analysis::any_errors(rep.findings));
  std::set<std::string> rules;
  for (const analysis::Diagnostic& d : rep.findings) rules.insert(d.rule);
  for (const char* r :
       {"PSL401", "PSL402", "PSL403", "PSL404", "PSL405", "PSL406"})
    EXPECT_TRUE(rules.count(r) == 1) << "corpus never trips " << r;
}

TEST(SrclintTree, FixtureCorpusNeverLeaksIntoCleanScans) {
  const srclint::FileSet fset =
      srclint::discover_files(PASCHED_REPO_ROOT, "");
  for (const std::string& p : fset.rel_paths)
    EXPECT_EQ(p.find("srclint/fixtures/"), std::string::npos) << p;
}

TEST(SrclintTree, CompileDbExtractionReadsFileEntries) {
  const std::string db = R"([
    {"directory": "/b", "command": "c++ -c x.cpp", "file": "/r/src/a.cpp"},
    {"file": "/r/src/b \"q\".cpp", "output": "b.o"}
  ])";
  const auto files = srclint::compile_db_files(db);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/r/src/a.cpp");
  EXPECT_EQ(files[1], "/r/src/b \"q\".cpp");
}

TEST(SrclintTree, EveryRegisteredPsl4RuleFiresSomewhereInTheCorpus) {
  // Registry/implementation coherence: a rule registered in the diagnostic
  // vocabulary but implemented nowhere (or vice versa) is a silent gap.
  const srclint::SrclintReport rep =
      scan_tree(std::string(PASCHED_REPO_ROOT) + "/tests/srclint/fixtures");
  for (const analysis::RuleInfo& r : analysis::all_rules()) {
    const std::string id(r.id);
    if (id.compare(0, 4, "PSL4") != 0) continue;
    EXPECT_TRUE(std::any_of(rep.findings.begin(), rep.findings.end(),
                            [&](const analysis::Diagnostic& d) {
                              return d.rule == id;
                            }))
        << id << " is registered but the corpus cannot make it fire";
  }
}
