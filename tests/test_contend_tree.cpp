// Whole-tree gates for the PSL50x rules: the repository itself must scan
// clean (its seams are either correctly ordered or CacheAligned-padded),
// the planted corpus must trip every static rule, and the cross-TU
// lock-order graph over the corpus must match its golden form exactly —
// the same pair of directions the CI scan job asserts via the binary.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "contend/locks.hpp"
#include "srclint/runner.hpp"
#include "srclint/source.hpp"

using namespace pasched;

namespace {

srclint::SrclintReport scan_tree(const std::string& root) {
  srclint::SrclintOptions opts;
  opts.root = root;
  return srclint::run_tree(opts);
}

}  // namespace

TEST(ContendTree, RepositoryScansClean) {
  const srclint::SrclintReport rep = scan_tree(PASCHED_REPO_ROOT);
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
  // Sanity that the scan covered the tree: a discovery regression that
  // found nothing would also "pass" the emptiness check.
  EXPECT_GT(rep.stats.files_in_scope, 100u);
  EXPECT_GT(rep.stats.functions, 500u);
  // The partitioned core's seams must be visible to extraction: the engine
  // declares mutex members and takes locks in drain/post paths.
  EXPECT_GE(rep.stats.mutex_members, 3u);
  EXPECT_GE(rep.stats.acquisitions, 20u);
  const srclint::SourceFile shard = srclint::lex_file(
      std::string(PASCHED_REPO_ROOT) + "/src/sim/shard.hpp",
      "src/sim/shard.hpp");
  std::set<std::string> members;
  for (const contend::MutexMember& m :
       contend::extract_locks(shard, contend::ContendConfig{}).mutex_members)
    members.insert(m.cls + "." + m.member);
  // Exactly these: the nested PairRing's mutex is not also credited to the
  // enclosing ShardedEngine.
  EXPECT_EQ(members, (std::set<std::string>{"PairRing.mu",
                                            "ShardedEngine.wrapup_mu_"}));
}

TEST(ContendTree, FixtureCorpusNeverLeaksIntoCleanScans) {
  const srclint::SrclintReport rep = scan_tree(PASCHED_REPO_ROOT);
  for (const std::string& edge : rep.graph)
    EXPECT_EQ(edge.find("contend/fixtures"), std::string::npos) << edge;
  for (const analysis::Diagnostic& d : rep.findings)
    EXPECT_EQ(d.subject.find("contend/fixtures"), std::string::npos)
        << d.subject;
}

TEST(ContendTree, PlantedCorpusTripsEveryStaticRule) {
  const srclint::SrclintReport rep =
      scan_tree(std::string(PASCHED_REPO_ROOT) + "/tests/contend/fixtures");
  EXPECT_TRUE(analysis::any_errors(rep.findings));
  std::set<std::string> rules;
  for (const analysis::Diagnostic& d : rep.findings) rules.insert(d.rule);
  for (const char* r : {"PSL501", "PSL502", "PSL503", "PSL504", "PSL505"})
    EXPECT_EQ(rules.count(r), 1u) << "corpus never trips " << r;
  EXPECT_EQ(rep.stats.cycles, 2u);  // one in-file ABBA, one cross-TU
  std::vector<std::string> psl505;
  for (const analysis::Diagnostic& d : rep.findings)
    if (d.rule == "PSL505") psl505.push_back(d.subject);
  EXPECT_EQ(psl505, std::vector<std::string>{"src/psl505_fire.cxx:16"});
}

TEST(ContendTree, GoldenLockOrderGraph) {
  const srclint::SrclintReport rep =
      scan_tree(std::string(PASCHED_REPO_ROOT) + "/tests/contend/fixtures");
  const std::vector<std::string> expected = {
      "CrossPair.x_ -> CrossPair.y_ @ src/psl501_cross_b.cxx:12",
      "CrossPair.y_ -> CrossPair.x_ @ src/psl501_cross_a.cxx:13",
      "Pair.a_ -> Pair.b_ @ src/psl501_abba_fire.cxx:12",
      "Pair.b_ -> Pair.a_ @ src/psl501_abba_fire.cxx:17",
      "PairOk.c_ -> PairOk.d_ @ src/psl501_silent.cxx:12",
  };
  EXPECT_EQ(rep.graph, expected);
}

TEST(ContendTree, ReportCarriesTheSharedJsonHeader) {
  const srclint::SrclintReport rep =
      scan_tree(std::string(PASCHED_REPO_ROOT) + "/tests/contend/fixtures");
  const std::string js = rep.json();
  EXPECT_EQ(js.find("{\n  \"schema\": 1,\n  \"tool\": \"pasched-srclint\","),
            0u);
  EXPECT_NE(js.find("\"alloc_claims\""), std::string::npos);
  EXPECT_NE(js.find("\"graph\""), std::string::npos);
}
