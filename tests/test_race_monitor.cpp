// Tests for the `pasched race` dynamic auditor: the vector-clock monitor's
// happens-before semantics driven directly (PSL201 vs PSL202 vs PSL203
// classification), and the end-to-end drivers — the planted cross-shard
// write regression the CI gate relies on, the zero-interference property of
// a clean audited run, the window-perturbation fuzzer's digest stability on
// a correct core, and the seeded window jitter it perturbs with.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "apps/aggregate_trace.hpp"
#include "core/equivalence.hpp"
#include "core/presets.hpp"
#include "core/simulation.hpp"
#include "race/fuzz.hpp"
#include "race/monitor.hpp"
#include "sim/shard.hpp"
#include "sim/time.hpp"

using namespace pasched;

namespace {

sim::Time at_us(std::int64_t us) { return sim::Time::zero() + sim::Duration::us(us); }

core::SimulationConfig scenario(std::uint64_t seed, bool cosched) {
  core::SimulationConfig cfg;
  cfg.cluster = cluster::presets::frost(4);
  cfg.cluster.seed = seed;
  cfg.job.ntasks = 16;
  cfg.job.tasks_per_node = 4;
  cfg.job.seed = seed + 1;
  cfg.use_coscheduler = cosched;
  cfg.cosched = core::paper_cosched();
  if (cosched) cfg.cluster.node.tunables = core::prototype_kernel();
  return cfg;
}

mpi::WorkloadFactory workload() {
  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = 12;
  return apps::aggregate_trace(at);
}

std::vector<std::string> rules(const std::vector<analysis::Diagnostic>& ds) {
  std::vector<std::string> out;
  out.reserve(ds.size());
  for (const analysis::Diagnostic& d : ds) out.push_back(d.rule);
  return out;
}

race::Violation violation(race::Domain accessor, race::Domain last_domain,
                          std::uint64_t last_clock) {
  race::Violation v;
  v.label = "kern.Kernel";
  v.id = 1;
  v.owner = last_domain;
  v.accessor = accessor;
  v.last_domain = last_domain;
  v.last_clock = last_clock;
  v.what = "wake";
  return v;
}

}  // namespace

TEST(RaceMonitor, PostAdmitChainOrdersTheAccessPair) {
  race::Monitor m(3);
  m.on_window_begin(0, at_us(10));  // domain 0 clock -> 1
  m.on_post(0, 1, at_us(30), at_us(5), /*src_seq=*/0);
  m.on_admit(1, 0, /*src_seq=*/0, at_us(30), at_us(20));
  // Domain 1 saw domain 0's clock 1 through the message; an access whose
  // last-access epoch is (0, clock 1) is ordered — a discipline breach but
  // not a race.
  m.report(violation(/*accessor=*/1, /*last_domain=*/0, /*last_clock=*/1));
  const auto r = rules(m.findings());
  ASSERT_EQ(r.size(), 1U);
  EXPECT_EQ(r[0], "PSL201");
}

TEST(RaceMonitor, UnorderedAccessPairIsClassifiedAsRace) {
  race::Monitor m(3);
  m.on_window_begin(0, at_us(10));
  m.on_window_begin(0, at_us(20));  // domain 0 clock -> 2
  // Domain 2 never admitted anything from domain 0: an access with
  // last-access epoch (0, clock 2) is unordered — a true cross-shard race.
  m.report(violation(/*accessor=*/2, /*last_domain=*/0, /*last_clock=*/2));
  const auto r = rules(m.findings());
  ASSERT_EQ(r.size(), 2U);
  EXPECT_EQ(r[0], "PSL201");
  EXPECT_EQ(r[1], "PSL202");
  EXPECT_EQ(m.findings()[1].subject, "kern.Kernel[1]");
}

TEST(RaceMonitor, DeliveryIntoTheDestinationsPastIsPSL203) {
  race::Monitor m(3);
  m.on_post(0, 1, at_us(15), at_us(5), /*src_seq=*/0);
  m.on_admit(1, 0, /*src_seq=*/0, /*t=*/at_us(15), /*dst_now=*/at_us(40));
  const auto f = m.findings();
  ASSERT_EQ(f.size(), 1U);
  EXPECT_EQ(f[0].rule, "PSL203");
  EXPECT_EQ(f[0].subject, "shard 1");
  EXPECT_NE(f[0].message.find("seq 0"), std::string::npos) << f[0].message;
}

TEST(RaceMonitor, BarrierPlanTotallyOrdersAllDomains) {
  race::Monitor m(3);
  m.on_window_begin(0, at_us(10));
  m.on_window_begin(0, at_us(20));
  m.on_window_begin(1, at_us(20));  // no post/admit between 0 and 2
  m.on_plan(at_us(20), /*final_window=*/false);
  // The completion step runs with every worker parked: after it, domain 2
  // has absorbed domain 0's clock 2, so the same access pair that raced in
  // UnorderedAccessPairIsClassifiedAsRace is now ordered.
  m.report(violation(/*accessor=*/2, /*last_domain=*/0, /*last_clock=*/2));
  const auto r = rules(m.findings());
  ASSERT_EQ(r.size(), 1U);
  EXPECT_EQ(r[0], "PSL201");
}

TEST(RaceMonitor, StatsCountEverySeamEvent) {
  race::Monitor m(2);
  m.on_window_begin(0, at_us(10));
  m.on_window_begin(1, at_us(10));
  m.on_post(0, 1, at_us(30), at_us(5), 0);
  m.on_post(0, 1, at_us(31), at_us(6), 1);
  m.on_admit(1, 0, 0, at_us(30), at_us(10));
  m.on_plan(at_us(10), false);
  m.report(violation(1, 0, 1));
  const race::Monitor::Stats s = m.stats();
  EXPECT_EQ(s.windows, 2U);
  EXPECT_EQ(s.posts, 2U);
  EXPECT_EQ(s.admits, 1U);
  EXPECT_EQ(s.plans, 1U);
  EXPECT_GE(s.violations, 1U);
}

// The planted write is detected at an annotated kernel entry point, so the
// check only exists when the annotation layer is compiled in.
#if PASCHED_VALIDATE_ENABLED
TEST(RaceAudit, PlantedCrossShardWriteIsCaughtWithAttribution) {
  race::AuditOptions opt;
  opt.workers = 1;  // logical violation without a physical data race
  opt.plant_cross_shard_write = true;
  opt.plant_at = sim::Duration::us(200);
  const race::AuditRun run =
      race::run_audited(scenario(3, false), workload(), opt);
  ASSERT_FALSE(run.findings.empty());
  EXPECT_TRUE(analysis::any_errors(run.findings));
  bool attributed = false;
  for (const analysis::Diagnostic& d : run.findings)
    if (d.rule == "PSL201" && d.subject == "kern.Kernel[1]") attributed = true;
  EXPECT_TRUE(attributed)
      << "expected a PSL201 naming kern.Kernel[1], got:\n"
      << [&] {
           std::string all;
           for (const auto& d : run.findings) all += "  " + d.str() + "\n";
           return all;
         }();
}
#endif  // PASCHED_VALIDATE_ENABLED

TEST(RaceAudit, CleanRunIsSilentAndDoesNotPerturbTheDigest) {
  const core::SimulationConfig cfg = scenario(5, true);
  race::AuditOptions opt;
  opt.workers = 4;
  const race::AuditRun run = race::run_audited(cfg, workload(), opt);
  EXPECT_TRUE(run.findings.empty());
  EXPECT_TRUE(run.digest.completed);
  // The monitor observed real traffic...
  EXPECT_GT(run.stats.posts, 0U);
  EXPECT_GT(run.stats.windows, 0U);
  EXPECT_GT(run.stats.plans, 0U);
  EXPECT_EQ(run.stats.posts, run.stats.admits);
  // ...without changing a single observable bit of the run.
  core::SimulationConfig plain = cfg;
  plain.parallel = 4;
  const core::CanonicalDigest ref = core::run_canonical(plain, workload());
  EXPECT_EQ(run.digest.hash, ref.hash);
  EXPECT_EQ(run.digest.elapsed.count(), ref.elapsed.count());
}

TEST(RaceFuzz, WindowPerturbationsHoldTheDigestOnACorrectCore) {
  const race::FuzzResult fz =
      race::fuzz_windows(scenario(7, false), workload(), /*iterations=*/5,
                         /*seed=*/9, /*workers=*/2);
  EXPECT_EQ(fz.runs, 6);  // baseline + 5 perturbations
  EXPECT_TRUE(fz.findings.empty());
  EXPECT_NE(fz.base_hash, 0U);
}

TEST(RaceFuzz, WindowJitterIsSeededAndKeepsTheDigest) {
  core::SimulationConfig cfg = scenario(11, true);
  cfg.parallel = 2;
  const auto digest = [&](std::optional<std::uint64_t> jitter) {
    return core::run_canonical(cfg, workload(), [&](core::Simulation& s) {
      s.sharded()->set_window_jitter(jitter);
    });
  };
  const auto stats = [&](std::optional<std::uint64_t> jitter) {
    core::Simulation s(cfg, workload());
    s.sharded()->set_window_jitter(jitter);
    EXPECT_TRUE(s.run().completed);
    return s.sharded()->planner_stats();
  };
  const core::CanonicalDigest plain = digest(std::nullopt);
  const core::CanonicalDigest a = digest(1234);
  const core::CanonicalDigest b = digest(1234);
  ASSERT_TRUE(plain.completed);
  // Shorter windows are equally conservative: the history is unchanged...
  EXPECT_EQ(a.hash, plain.hash);
  EXPECT_EQ(a.elapsed.count(), plain.elapsed.count());
  EXPECT_EQ(b.hash, a.hash);

  // ...while the plan is a pure function of the seed, and the jitter really
  // shrinks windows: a no-op jitter plans exactly the unjittered rounds.
  const sim::PlannerStats base = stats(std::nullopt);
  const sim::PlannerStats s1 = stats(1234);
  const sim::PlannerStats s2 = stats(1234);
  EXPECT_TRUE(s1 == s2);
  EXPECT_GT(s1.rounds, base.rounds);
}
