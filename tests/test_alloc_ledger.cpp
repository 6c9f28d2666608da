// Unit tests for the runtime allocation ledger: attribution scopes charge
// the right (site, phase) bucket, reset zeroes, reserve_cold's growth
// lands cold, and check_claims refutes exactly the hot-allocating Core
// sites (PSL606) — never Dispatch pressure, never unobserved claims.
//
// Counting is process-global while installed, so every test brackets its
// allocations with reset()/install()/remove() and asserts only on its own
// named rows (gtest's incidental allocations land in "(unscoped)").
//
// The two regressions at the end run small fig5 jobs under the ledger:
// the MPI and fabric message path keeps its state in flat arrays, so
// delivering a message must not allocate, and the round planner reuses its
// buffers, so planning a round must not allocate either.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc/ledger.hpp"
#include "core/simulation.hpp"
#include "fig_scenario.hpp"
#include "util/allocgate.hpp"

using namespace pasched;

namespace {

// Defeats heap elision and keeps each probe's size recognizable.
void churn(std::size_t n) {
  std::vector<long> v;
  v.reserve(n);
  static volatile const void* sink;
  sink = v.data();
  static_cast<void>(sink);
}

}  // namespace

TEST(AllocLedger, AvailabilityMatchesTheBuild) {
#if PASCHED_VALIDATE_ENABLED
  EXPECT_TRUE(alloc::Ledger::available());
#else
  EXPECT_FALSE(alloc::Ledger::available());
  alloc::Ledger ledger;
  ledger.install();
  churn(64);
  ledger.remove();
  const alloc::AllocLedgerReport rep = ledger.report();
  EXPECT_FALSE(rep.enabled);
  EXPECT_TRUE(rep.sites.empty());
  EXPECT_TRUE(ledger.check_claims({{"anything", "f", 1}}).empty());
#endif
}

#if PASCHED_VALIDATE_ENABLED

namespace {

const alloc::SiteAllocRow* find_row(const alloc::AllocLedgerReport& rep,
                                    const std::string& name) {
  for (const alloc::SiteAllocRow& r : rep.sites)
    if (r.name == name) return &r;
  return nullptr;
}

}  // namespace

TEST(AllocLedger, HotScopeChargesTheHotBucket) {
  alloc::Ledger ledger;
  ledger.reset();
  ledger.install();
  {
    PASCHED_ALLOC_HOT_SCOPE("LedgerTest.hot");
    churn(512);
  }
  ledger.remove();
  const alloc::AllocLedgerReport rep = ledger.report();
  EXPECT_TRUE(rep.enabled);
  const alloc::SiteAllocRow* row = find_row(rep, "LedgerTest.hot");
  ASSERT_NE(row, nullptr) << rep.str();
  EXPECT_EQ(row->kind, util::AllocSiteKind::Core);
  EXPECT_GE(row->hot_allocs, 1u);
  EXPECT_GE(row->hot_bytes, 512u * sizeof(long));
  EXPECT_EQ(row->cold_allocs, 0u);
  // Core hot traffic is exactly what the BENCH gate sums.
  EXPECT_GE(rep.hot_window_allocs, row->hot_allocs);
}

TEST(AllocLedger, ColdRegionAndReserveColdChargeTheColdBucket) {
  alloc::Ledger ledger;
  ledger.reset();
  ledger.install();
  {
    PASCHED_ALLOC_HOT_SCOPE("LedgerTest.coldgrowth");
    {
      PASCHED_ALLOC_COLD_REGION();
      churn(256);
    }
    std::vector<int> scratch;
    util::reserve_cold(scratch, 1024);  // sanctioned amortized growth
  }
  ledger.remove();
  const alloc::AllocLedgerReport rep = ledger.report();
  const alloc::SiteAllocRow* row = find_row(rep, "LedgerTest.coldgrowth");
  ASSERT_NE(row, nullptr) << rep.str();
  EXPECT_EQ(row->hot_allocs, 0u);
  EXPECT_GE(row->cold_allocs, 2u);
  EXPECT_GE(row->cold_bytes, 256u * sizeof(long) + 1024u * sizeof(int));
}

TEST(AllocLedger, DispatchPressureIsMeasuredButNeverGated) {
  alloc::Ledger ledger;
  ledger.reset();
  ledger.install();
  {
    PASCHED_ALLOC_DISPATCH_SCOPE("LedgerTest.dispatch");
    churn(128);
  }
  ledger.remove();
  const alloc::AllocLedgerReport rep = ledger.report();
  const alloc::SiteAllocRow* row = find_row(rep, "LedgerTest.dispatch");
  ASSERT_NE(row, nullptr) << rep.str();
  EXPECT_EQ(row->kind, util::AllocSiteKind::Dispatch);
  EXPECT_GE(row->hot_allocs, 1u);
  // Dispatch rows are workload pressure: excluded from the hot-window
  // gate, and a claim carrying the same name is not refuted.
  EXPECT_EQ(rep.hot_window_allocs, 0u);
  EXPECT_GE(rep.dispatch_hot_allocs, 1u);
  EXPECT_TRUE(
      ledger.check_claims({{"LedgerTest.dispatch", "f.cpp", 1}}).empty());
}

TEST(AllocLedger, CheckClaimsRefutesOnlyHotAllocatingCoreSites) {
  alloc::Ledger ledger;
  ledger.reset();
  ledger.install();
  {
    PASCHED_ALLOC_HOT_SCOPE("LedgerTest.refuted");
    churn(64);
  }
  {
    PASCHED_ALLOC_COLD_SCOPE("LedgerTest.coldonly");
    churn(64);
  }
  ledger.remove();
  const std::vector<analysis::Diagnostic> ds = ledger.check_claims(
      {{"LedgerTest.refuted", "src/x.cpp", 10},
       {"LedgerTest.coldonly", "src/y.cpp", 20},
       {"LedgerTest.never_ran", "src/z.cpp", 30}});
  // Exactly the hot allocator: cold traffic is sanctioned, an unobserved
  // site proves nothing either way.
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].rule, "PSL606");
  EXPECT_EQ(ds[0].severity, analysis::Severity::Error);
  EXPECT_EQ(ds[0].subject, "src/x.cpp:10");
  EXPECT_NE(ds[0].message.find("LedgerTest.refuted"), std::string::npos);
}

TEST(AllocLedger, ResetZeroesEveryCounter) {
  alloc::Ledger ledger;
  ledger.reset();
  ledger.install();
  {
    PASCHED_ALLOC_HOT_SCOPE("LedgerTest.resettable");
    churn(64);
  }
  ledger.remove();
  ASSERT_NE(find_row(ledger.report(), "LedgerTest.resettable"), nullptr);
  ledger.reset();
  const alloc::AllocLedgerReport rep = ledger.report();
  EXPECT_EQ(find_row(rep, "LedgerTest.resettable"), nullptr) << rep.str();
  EXPECT_EQ(rep.total_allocs, 0u);
}

TEST(AllocLedger, NothingIsCountedWhileRemoved) {
  alloc::Ledger ledger;
  ledger.reset();
  {
    PASCHED_ALLOC_HOT_SCOPE("LedgerTest.uninstalled");
    churn(64);
  }
  const alloc::AllocLedgerReport rep = ledger.report();
  EXPECT_EQ(find_row(rep, "LedgerTest.uninstalled"), nullptr) << rep.str();
}

TEST(AllocLedger, FreesFollowTheScopeThatReleases) {
  alloc::Ledger ledger;
  ledger.reset();
  ledger.install();
  {
    PASCHED_ALLOC_HOT_SCOPE("LedgerTest.frees");
    std::vector<long>* v = new std::vector<long>(32);
    delete v;
  }
  ledger.remove();
  const alloc::AllocLedgerReport rep = ledger.report();
  const alloc::SiteAllocRow* row = find_row(rep, "LedgerTest.frees");
  ASSERT_NE(row, nullptr) << rep.str();
  EXPECT_GE(row->hot_allocs, 2u);  // the vector object and its buffer
  EXPECT_GE(row->hot_frees, 2u);
}

TEST(AllocLedger, ReportRanksSitesByHotTraffic) {
  alloc::Ledger ledger;
  ledger.reset();
  ledger.install();
  {
    PASCHED_ALLOC_HOT_SCOPE("LedgerTest.rank_heavy");
    churn(64);
    churn(64);
    churn(64);
  }
  {
    PASCHED_ALLOC_HOT_SCOPE("LedgerTest.rank_light");
    churn(64);
  }
  ledger.remove();
  const alloc::AllocLedgerReport rep = ledger.report();
  std::size_t heavy = rep.sites.size(), light = rep.sites.size();
  for (std::size_t i = 0; i < rep.sites.size(); ++i) {
    if (rep.sites[i].name == "LedgerTest.rank_heavy") heavy = i;
    if (rep.sites[i].name == "LedgerTest.rank_light") light = i;
  }
  ASSERT_LT(heavy, rep.sites.size());
  ASSERT_LT(light, rep.sites.size());
  EXPECT_LT(heavy, light) << rep.str();
}

#endif  // PASCHED_VALIDATE_ENABLED

TEST(AllocLedger, MessagePathAllocatesLessThanOncePerTwentyMessages) {
  if (!alloc::Ledger::available())
    GTEST_SKIP() << "the allocation hook needs -DPASCHED_VALIDATE=ON";
  testutil::FigScenario s = testutil::fig_scenario(/*fig5=*/true, 500);
  core::Simulation sim(s.cfg, s.factory);
  alloc::Ledger ledger;
  ledger.reset();
  ledger.install();
  const core::SimulationResult r = sim.run();
  ledger.remove();
  ASSERT_TRUE(r.completed);
  const alloc::AllocLedgerReport rep = ledger.report();
  std::uint64_t dispatch = 0;
  for (const alloc::SiteAllocRow& row : rep.sites)
    if (row.name == "Engine.callback") dispatch = row.hot_allocs;
  const std::uint64_t messages = sim.cluster().fabric().stats().messages;
  ASSERT_GT(messages, 1000u);
  // A hash-map mailbox allocates a node per message; growth of the flat
  // mailboxes, watermarks and span logs is amortized over the whole run.
  EXPECT_LT(dispatch * 20, messages)
      << dispatch << " Engine.callback hot allocations for " << messages
      << " messages\n" << rep.str();
}

TEST(AllocLedger, PlanRoundAllocationsDoNotGrowWithRounds) {
  if (!alloc::Ledger::available())
    GTEST_SKIP() << "the allocation hook needs -DPASCHED_VALIDATE=ON";
  // The round planner plans into buffers that only grow, so the cold
  // allocations charged to a run's planning passes (first-round buffer
  // growth, the job's wrapup) are the same at any run length.
  struct Planning {
    std::uint64_t rounds = 0;
    std::uint64_t allocs = 0;
  };
  const auto plan_round = [](int calls) {
    testutil::FigScenario s = testutil::fig_scenario(/*fig5=*/true, calls);
    s.cfg.parallel = 2;
    core::Simulation sim(s.cfg, s.factory);
    alloc::Ledger ledger;
    ledger.reset();
    ledger.install();
    const core::SimulationResult r = sim.run();
    ledger.remove();
    EXPECT_TRUE(r.completed) << calls << " calls";
    Planning p;
    p.rounds = sim.sharded()->planner_stats().rounds;
    for (const alloc::SiteAllocRow& row : ledger.report().sites)
      if (row.name == "ShardedEngine::plan_round")
        p.allocs = row.cold_allocs + row.hot_allocs;
    return p;
  };
  const Planning short_run = plan_round(40);
  const Planning long_run = plan_round(160);
  ASSERT_GT(long_run.rounds, 2 * short_run.rounds);
  EXPECT_EQ(long_run.allocs, short_run.allocs)
      << short_run.rounds << " rounds vs " << long_run.rounds << " rounds";
}
