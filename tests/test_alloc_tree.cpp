// Whole-tree gates for the PSL60x rules: the repository itself must scan
// clean (its hot paths are slab/scratch-disciplined), the planted corpus
// must trip every static rule, and the engine's lifecycle functions must
// actually carry allocation-free claims — the certify half of the
// certify-then-verify pair the runtime ledger closes (PSL606).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "srclint/runner.hpp"

using namespace pasched;

namespace {

srclint::SrclintReport scan_tree(const std::string& root) {
  srclint::SrclintOptions opts;
  opts.root = root;
  return srclint::run_tree(opts);
}

bool has_claim(const srclint::SrclintReport& rep, const std::string& fn) {
  return std::any_of(rep.alloc_claims.begin(), rep.alloc_claims.end(),
                     [&](const alloc::AllocClaim& c) {
                       return c.function == fn;
                     });
}

}  // namespace

TEST(AllocTree, RepositoryScansClean) {
  const srclint::SrclintReport rep = scan_tree(PASCHED_REPO_ROOT);
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
  // Sanity that the scan covered the tree: a discovery regression that
  // found nothing would also "pass" the emptiness check.
  EXPECT_GT(rep.stats.files_in_scope, 100u);
  EXPECT_GT(rep.stats.functions, 500u);
  EXPECT_GE(rep.stats.hot_functions, 20u);
  // Alloc's region recovery (marked bodies plus lifecycle functions): each
  // region that scans clean earns a claim, so at least as many regions.
  EXPECT_GE(rep.alloc_claims.size(), 20u);
  // HeapItem carries the arena annotation.
  EXPECT_GE(rep.stats.arena_types, 1u);
}

TEST(AllocTree, EngineLifecycleIsCertifiedAllocationFree) {
  const srclint::SrclintReport rep = scan_tree(PASCHED_REPO_ROOT);
  // The claims the fig5 ledger run verifies at runtime: the per-event core.
  for (const char* fn :
       {"Engine::schedule_at", "Engine::cancel", "Engine::fire_next",
        "Engine::fire_item", "Engine::acquire_slot", "Engine::release_slot",
        "Kernel::on_tick", "ShardedEngine::admit_sorted"})
    EXPECT_TRUE(has_claim(rep, fn)) << "no allocation-free claim for " << fn;
}

TEST(AllocTree, FixtureCorpusNeverLeaksIntoCleanScans) {
  const srclint::SrclintReport rep = scan_tree(PASCHED_REPO_ROOT);
  for (const analysis::Diagnostic& d : rep.findings)
    EXPECT_EQ(d.subject.find("alloc/fixtures"), std::string::npos)
        << d.subject;
  for (const alloc::AllocClaim& c : rep.alloc_claims)
    EXPECT_EQ(c.file.find("alloc/fixtures"), std::string::npos) << c.file;
}

TEST(AllocTree, PlantedCorpusTripsEveryStaticRule) {
  const srclint::SrclintReport rep =
      scan_tree(std::string(PASCHED_REPO_ROOT) + "/tests/alloc/fixtures");
  EXPECT_TRUE(analysis::any_errors(rep.findings));
  std::set<std::string> rules;
  for (const analysis::Diagnostic& d : rep.findings) rules.insert(d.rule);
  // PSL606 is runtime-only (the ledger refutation); the static sweep must
  // trip everything else.
  for (const char* r : {"PSL601", "PSL602", "PSL603", "PSL604"})
    EXPECT_EQ(rules.count(r), 1u) << "corpus never trips " << r;
  EXPECT_EQ(rules.count("PSL606"), 0u);
  // The silent twins and the waiver fixture pin the claim contract.
  EXPECT_EQ(rep.alloc_claims.size(), 3u);
  EXPECT_EQ(rep.stats.suppressions_honored, 1u);
}

TEST(AllocTree, ReportCarriesTheSharedJsonHeader) {
  const srclint::SrclintReport rep =
      scan_tree(std::string(PASCHED_REPO_ROOT) + "/tests/alloc/fixtures");
  const std::string js = rep.json();
  EXPECT_EQ(js.find("{\n  \"schema\": 1,\n  \"tool\": \"pasched-srclint\","),
            0u);
  EXPECT_NE(js.find("\"alloc_claims\""), std::string::npos);
  EXPECT_NE(js.find("\"findings\""), std::string::npos);
}
