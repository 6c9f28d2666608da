// Per-rule fire/silent coverage for the PSL50x rules over the planted
// fixture corpus (tests/contend/fixtures mirrors the src/ layout the scope
// filter expects), plus the suppression contract: srclint-ok(PSL505)
// silences the WARN and is counted as honored.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "contend/locks.hpp"
#include "contend/rules.hpp"
#include "srclint/runner.hpp"
#include "srclint/source.hpp"

using namespace pasched;

namespace {

const char* const kFixtureRoot = PASCHED_REPO_ROOT "/tests/contend/fixtures";

srclint::SrclintReport scan(const std::vector<std::string>& rels) {
  srclint::SrclintOptions opts;
  opts.root = kFixtureRoot;
  return srclint::run_files(opts, rels);
}

std::size_t count_rule(const srclint::SrclintReport& rep,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(rep.findings.begin(), rep.findings.end(),
                    [&](const analysis::Diagnostic& d) {
                      return d.rule == rule;
                    }));
}

}  // namespace

TEST(ContendRules, AbbaCycleFiresInOneTu) {
  const srclint::SrclintReport rep = scan({"src/psl501_abba_fire.cxx"});
  EXPECT_EQ(count_rule(rep, "PSL501"), 1u);
  EXPECT_EQ(rep.findings.size(), 1u) << rep.str();
  EXPECT_EQ(rep.stats.cycles, 1u);
}

TEST(ContendRules, ConsistentOrderStaysSilent) {
  const srclint::SrclintReport rep = scan({"src/psl501_silent.cxx"});
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
  // The edge exists — silence comes from the absence of a cycle, not of
  // extraction.
  EXPECT_EQ(rep.stats.graph_edges, 1u);
}

TEST(ContendRules, CrossTuCycleNeedsBothHalves) {
  const srclint::SrclintReport half =
      scan({"src/pair.hpp", "src/psl501_cross_a.cxx"});
  EXPECT_EQ(count_rule(half, "PSL501"), 0u) << half.str();

  const srclint::SrclintReport both = scan(
      {"src/pair.hpp", "src/psl501_cross_a.cxx", "src/psl501_cross_b.cxx"});
  EXPECT_EQ(count_rule(both, "PSL501"), 1u) << both.str();
  EXPECT_EQ(both.stats.cycles, 1u);
}

TEST(ContendRules, LockAcrossBlockingSeamFiresDirectAndViaCall) {
  const srclint::SrclintReport rep = scan({"src/psl502_fire.cxx"});
  EXPECT_EQ(count_rule(rep, "PSL502"), 2u) << rep.str();
  const bool via_call = std::any_of(
      rep.findings.begin(), rep.findings.end(),
      [](const analysis::Diagnostic& d) {
        return d.message.find("call to `park`") != std::string::npos;
      });
  EXPECT_TRUE(via_call) << rep.str();

  EXPECT_TRUE(scan({"src/psl502_silent.cxx"}).findings.empty());
}

TEST(ContendRules, FalseSharingLayoutFiresOnBothShapes) {
  const srclint::SrclintReport rep = scan({"src/psl503_fire.cxx"});
  EXPECT_EQ(count_rule(rep, "PSL503"), 2u) << rep.str();
  EXPECT_TRUE(scan({"src/psl503_silent.cxx"}).findings.empty());
}

TEST(ContendRules, ContendedAtomicInLoopFires) {
  const srclint::SrclintReport rep = scan({"src/psl504_fire.cxx"});
  EXPECT_EQ(count_rule(rep, "PSL504"), 1u) << rep.str();
  EXPECT_TRUE(scan({"src/psl504_silent.cxx"}).findings.empty());
}

TEST(ContendRules, CoarseMutexOverOwnedStateFiresAndClaims) {
  const srclint::SrclintReport rep = scan({"src/psl505_fire.cxx"});
  ASSERT_EQ(rep.findings.size(), 1u) << rep.str();
  EXPECT_EQ(rep.findings[0].rule, "PSL505");
  EXPECT_EQ(rep.findings[0].subject, "src/psl505_fire.cxx:16");
  EXPECT_NE(rep.findings[0].message.find("`Queue.qmu_`"), std::string::npos)
      << rep.findings[0].message;

  const srclint::SrclintReport silent = scan({"src/psl505_silent.cxx"});
  EXPECT_TRUE(silent.findings.empty()) << silent.str();
}

TEST(ContendRules, SuppressionSilencesTheWarn) {
  const std::string code = R"(
struct Hub {
  race::Owned<int> head_;
  // srclint-ok(PSL505): coarse on purpose until the hub rework.
  std::mutex hmu_;
};
)";
  const srclint::SourceFile f = srclint::lex_string(code, "src/sim/hub.cpp");
  const contend::ContendConfig cfg;
  const contend::FileLocks locks = contend::extract_locks(f, cfg);
  std::vector<analysis::Diagnostic> findings;
  contend::FileRuleStats stats;
  contend::run_file_rules(f, locks, cfg, srclint::RuleSelection{}, findings,
                          stats);
  EXPECT_TRUE(findings.empty());
  EXPECT_EQ(stats.suppressions_honored, 1);
}

TEST(ContendRules, EveryContendRuleIsRegistered) {
  // --only validation (analysis::find_rule) must know the
  // PSL50x block, and srclint-ok() comments must parse PSL5xx ids.
  for (const char* id :
       {"PSL501", "PSL502", "PSL503", "PSL504", "PSL505"}) {
    const analysis::RuleInfo* r = analysis::find_rule(id);
    ASSERT_NE(r, nullptr) << id;
    EXPECT_NE(r->invariant[0], '\0') << id;
  }
  const srclint::SourceFile f = srclint::lex_string(
      "// srclint-ok(PSL505): coarse on purpose\nint x;\n", "src/a.cpp");
  ASSERT_EQ(f.suppressions.size(), 1u);
  EXPECT_EQ(f.suppressions[0].rule, "PSL505");
  EXPECT_TRUE(f.suppressed("PSL505", 2));
}

TEST(ContendRules, OnlyListNarrowsTheScan) {
  srclint::SrclintOptions opts;
  opts.root = kFixtureRoot;
  opts.select.only = {"PSL503"};
  const srclint::SrclintReport rep =
      srclint::run_files(opts, {"src/psl503_fire.cxx", "src/psl504_fire.cxx"});
  EXPECT_EQ(count_rule(rep, "PSL503"), 2u);
  EXPECT_EQ(count_rule(rep, "PSL504"), 0u);
}
