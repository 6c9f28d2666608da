// Per-rule fire/silent coverage for the PSL60x rules over the planted fixture
// corpus (tests/alloc/fixtures mirrors the src/ layout the scope filter
// expects), plus the waiver/claim contract: srclint-ok(PSL601) silences the
// finding but forfeits the PSL605 allocation-free claim — a waiver is not
// a certificate.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "srclint/runner.hpp"

using namespace pasched;

namespace {

const char* const kFixtureRoot = PASCHED_REPO_ROOT "/tests/alloc/fixtures";

// The PSL60x family alone: PSL403 also fires on the allocating hot
// functions here (tests/srclint/golden_verdicts.json).
srclint::SrclintReport scan(const std::vector<std::string>& rels) {
  srclint::SrclintOptions opts;
  opts.root = kFixtureRoot;
  opts.select.only = {"PSL601", "PSL602", "PSL603", "PSL604", "PSL605"};
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

TEST(AllocRules, Psl601FiresOnEveryAllocationShape) {
  const srclint::SrclintReport rep = scan({"src/psl601_fire.cxx"});
  // Naked new, std::malloc, and a per-call owning container: three hits.
  EXPECT_EQ(count_rule(rep, "PSL601"), 3u) << rep.str();
  EXPECT_EQ(rep.findings.size(), 3u);
  // An allocating hot function cannot be certified allocation-free.
  EXPECT_TRUE(rep.alloc_claims.empty());
}

TEST(AllocRules, Psl601SlabAndPlacementNewStaySilent) {
  const srclint::SrclintReport rep = scan({"src/psl601_silent.cxx"});
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
  // The clean hot function earns the allocation-free claim.
  ASSERT_EQ(rep.alloc_claims.size(), 1u);
  EXPECT_EQ(rep.alloc_claims[0].function, "fire_one");
}

TEST(AllocRules, Psl602FiresOnUndisciplinedGrowth) {
  const srclint::SrclintReport rep = scan({"src/psl602_fire.cxx"});
  EXPECT_EQ(count_rule(rep, "PSL602"), 1u) << rep.str();
  EXPECT_EQ(rep.findings.size(), 1u);
  EXPECT_TRUE(rep.alloc_claims.empty());
}

TEST(AllocRules, Psl602ReserveDisciplineSilences) {
  const srclint::SrclintReport rep = scan({"src/psl602_silent.cxx"});
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
  ASSERT_EQ(rep.alloc_claims.size(), 1u);
  EXPECT_EQ(rep.alloc_claims[0].function, "push");
}

TEST(AllocRules, Psl603FiresOncePerHazardLine) {
  const srclint::SrclintReport rep = scan({"src/psl603_fire.cxx"});
  // string member, unique_ptr member, raw-pointer member: one per line.
  EXPECT_EQ(count_rule(rep, "PSL603"), 3u) << rep.str();
  // Layout hazards are warnings — they flag, they do not gate.
  EXPECT_FALSE(analysis::any_errors(rep.findings));
}

TEST(AllocRules, Psl603FlatLayoutStaysSilent) {
  const srclint::SrclintReport rep = scan({"src/psl603_silent.cxx"});
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
}

TEST(AllocRules, Psl604FiresOnEveryContractClause) {
  const srclint::SrclintReport rep = scan({"src/psl604_fire.cxx"});
  // Destructor, virtual, owning member, naked new in a member function.
  EXPECT_EQ(count_rule(rep, "PSL604"), 4u) << rep.str();
  EXPECT_TRUE(analysis::any_errors(rep.findings));
  EXPECT_EQ(rep.stats.arena_types, 1u);
}

TEST(AllocRules, Psl604HonoredContractStaysSilent) {
  const srclint::SrclintReport rep = scan({"src/psl604_silent.cxx"});
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
  EXPECT_EQ(rep.stats.arena_types, 1u);
}

TEST(AllocRules, Psl605WaiverSilencesButForfeitsTheClaim) {
  const srclint::SrclintReport rep = scan({"src/psl605_claim.cxx"});
  // The waived allocation produces no finding...
  EXPECT_TRUE(rep.findings.empty()) << rep.str();
  EXPECT_EQ(rep.stats.suppressions_honored, 1u);
  // ...but only the genuinely clean function is certified.
  ASSERT_EQ(rep.alloc_claims.size(), 1u);
  EXPECT_EQ(rep.alloc_claims[0].function, "next_due");
}

TEST(AllocRules, OnlyFilterRestrictsFindingsButNotClaims) {
  srclint::SrclintOptions opts;
  opts.root = kFixtureRoot;
  opts.select.only = {"PSL603"};
  const srclint::SrclintReport rep = srclint::run_files(
      opts, {"src/psl601_fire.cxx", "src/psl601_silent.cxx",
             "src/psl603_fire.cxx"});
  EXPECT_EQ(rep.findings.size(), 3u) << rep.str();
  for (const analysis::Diagnostic& d : rep.findings)
    EXPECT_EQ(d.rule, "PSL603");
  // Claim eligibility ignores the filter: psl601_fire's function still
  // allocates, so only the silent twin is certified.
  ASSERT_EQ(rep.alloc_claims.size(), 1u);
  EXPECT_EQ(rep.alloc_claims[0].function, "fire_one");
}

TEST(AllocRules, FindingsAreSortedAndCarryRuleMetadata) {
  const srclint::SrclintReport rep =
      scan({"src/psl604_fire.cxx", "src/psl601_fire.cxx"});
  ASSERT_GE(rep.findings.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      rep.findings.begin(), rep.findings.end(),
      [](const analysis::Diagnostic& a, const analysis::Diagnostic& b) {
        return a.subject != b.subject ? a.subject < b.subject
                                      : a.rule < b.rule;
      }));
  for (const char* id :
       {"PSL601", "PSL602", "PSL603", "PSL604", "PSL605", "PSL606"})
    EXPECT_NE(analysis::find_rule(id), nullptr) << id;
}
