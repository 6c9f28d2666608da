// Golden-schedule tests for the per-pair window planner. Each case
// hand-derives the null-message fixpoint and the chained-window recurrence
//
//     E_s    = min(next_t_s, min_p (E_p + L_ps))
//     W(1)_s = min_{p != s} (E_p + L_ps)
//     W(j)_s = min_{p != s} (W(j-1)_p + L_ps)
//
// for three fabric shapes — flat (all pairs at the global bound), framed
// (asymmetric pair bounds, the shape a framed interconnect certificate
// yields), and jitter (all six off-diagonal bounds distinct) — over the
// full kWindowBatch-window chain, and pins the planner's output to the
// exact expected times. The planner is the determinism keystone of the
// partitioned core: every shard recomputes this schedule independently, so
// any drift here breaks bit-identity across worker counts.
#include <gtest/gtest.h>

#include <vector>

#include "sim/planner.hpp"

namespace {

using pasched::sim::Duration;
using pasched::sim::kWindowBatch;
using pasched::sim::PairLookahead;
using pasched::sim::RoundPlan;
using pasched::sim::Time;
using pasched::sim::WindowPlanner;

constexpr Time us(std::int64_t v) { return Time::from_ns(v * 1000); }

/// Builds a matrix from explicit off-diagonal bounds (row-major, us).
PairLookahead matrix(int shards, std::vector<std::int64_t> bounds_us,
                     std::int64_t global_us) {
  PairLookahead la;
  la.shards = shards;
  la.global = Duration::us(global_us);
  for (const std::int64_t b : bounds_us) la.bounds.push_back(Duration::us(b));
  return la;
}

std::vector<Time> plan_ends(const WindowPlanner& p,
                            const std::vector<Time>& next_t, Time deadline,
                            RoundPlan& out) {
  p.plan(next_t, deadline, 1, 1, out);
  std::vector<Time> ends;
  for (int j = 1; j <= out.length; ++j)
    for (int s = 0; s < out.shards; ++s) ends.push_back(out.end_of(j, s));
  return ends;
}

TEST(Planner, SingleShardRunsOneWindowAtTheGlobalBound) {
  // One shard has no pairs to chain over: one window per round at
  // t0 + L, not a kWindowBatch chain.
  const WindowPlanner p(PairLookahead::uniform(1, Duration::us(10)));
  RoundPlan plan;
  const std::vector<Time> ends = plan_ends(p, {us(100)}, us(1000), plan);
  EXPECT_FALSE(plan.final);
  EXPECT_EQ(plan.length, 1);
  EXPECT_EQ(ends, (std::vector<Time>{us(110)}));
  // The quantum shrink applies to the single window too: half of L.
  RoundPlan half;
  p.plan({us(100)}, us(1000), 1, 2, half);
  EXPECT_FALSE(half.final);
  ASSERT_EQ(half.length, 1);
  EXPECT_EQ(half.end_of(1, 0), us(105));
}

TEST(Planner, FlatFabricChainsUniformWindows) {
  // All pairs at the global bound: the per-pair schedule degenerates to the
  // legacy window *shape* but still chains kWindowBatch windows per round —
  // that chaining is the whole sync-round reduction on flat fabrics.
  const WindowPlanner p(PairLookahead::uniform(3, Duration::us(10)));
  RoundPlan plan;
  const std::vector<Time> ends =
      plan_ends(p, {us(100), us(100), us(100)}, us(1000), plan);
  ASSERT_EQ(kWindowBatch, 8);
  EXPECT_EQ(plan.length, 8);
  std::vector<Time> want;
  for (int j = 1; j <= 8; ++j)  // W(j) = 100 + 10j us for every shard
    for (int s = 0; s < 3; ++s) want.push_back(us(100 + 10 * j));
  EXPECT_EQ(ends, want);
}

TEST(Planner, FramedFabricGoldenSchedule) {
  // Asymmetric pair bounds: L(0->1) = 30us, L(1->0) = 10us. Shard 0 is
  // gated only by shard 1's slow-to-reach-it horizon and vice versa.
  //   next_t = {100, 101}us  =>  E = {100, 101}  (fixpoint = inputs here)
  //   W(1) = {E1+10, E0+30}           = {111, 130}
  //   W(2) = {W(1)_1+10, W(1)_0+30}   = {140, 141}
  //   W(3) = {W(2)_1+10, W(2)_0+30}   = {151, 170}
  //   ... and so on, alternating +10/+30, through W(8) = {260, 261}.
  // Every entry beats the legacy global window t0 + 10 = 110us — the
  // per-pair chain runs ahead of a one-window round within one round.
  const WindowPlanner p(matrix(2, {0, 30, 10, 0}, 10));
  RoundPlan plan;
  const std::vector<Time> ends =
      plan_ends(p, {us(100), us(101)}, us(100'000), plan);
  EXPECT_FALSE(plan.final);
  EXPECT_EQ(plan.length, 8);
  EXPECT_EQ(ends, (std::vector<Time>{us(111), us(130),    // W(1)
                                     us(140), us(141),    // W(2)
                                     us(151), us(170),    // W(3)
                                     us(180), us(181),    // W(4)
                                     us(191), us(210),    // W(5)
                                     us(220), us(221),    // W(6)
                                     us(231), us(250),    // W(7)
                                     us(260), us(261)}));  // W(8)
}

TEST(Planner, JitterFabricGoldenSchedule) {
  // All six off-diagonal bounds distinct (us):
  //     L = [ 0 10 20
  //          15  0 25
  //          30 12  0 ]
  // next_t = {50, 60, 70}us. The fixpoint leaves E = next_t (no bound is
  // short enough to undercut a neighbor), then:
  //   W(1)_0 = min(60+15, 70+30) = 75
  //   W(1)_1 = min(50+10, 70+12) = 60
  //   W(1)_2 = min(50+20, 60+25) = 70
  //   W(2)_0 = min(60+15, 70+30) = 75   (shard 0 is already at its bound)
  //   W(2)_1 = min(75+10, 70+12) = 82
  //   W(2)_2 = min(75+20, 60+25) = 85
  // and the same recurrence through W(8).
  const WindowPlanner p(matrix(3, {0, 10, 20, 15, 0, 25, 30, 12, 0}, 10));
  RoundPlan plan;
  const std::vector<Time> ends =
      plan_ends(p, {us(50), us(60), us(70)}, us(100'000), plan);
  EXPECT_EQ(plan.length, 8);
  EXPECT_EQ(ends, (std::vector<Time>{us(75), us(60), us(70),      // W(1)
                                     us(75), us(82), us(85),      // W(2)
                                     us(97), us(85), us(95),      // W(3)
                                     us(100), us(107), us(110),   // W(4)
                                     us(122), us(110), us(120),   // W(5)
                                     us(125), us(132), us(135),   // W(6)
                                     us(147), us(135), us(145),   // W(7)
                                     us(150), us(157), us(160)}));  // W(8)
}

TEST(Planner, ChainStopsEarlyOnceEveryShardIsPinnedAtTheDeadline) {
  const WindowPlanner p(PairLookahead::uniform(2, Duration::us(10)));
  RoundPlan plan;
  // Deadline 115us: W(1) = 110, W(2) clamps to 115, W(3) would repeat the
  // row exactly — the chain must stop at length 2, not pad no-op windows.
  const std::vector<Time> ends =
      plan_ends(p, {us(100), us(100)}, us(115), plan);
  EXPECT_EQ(plan.length, 2);
  EXPECT_EQ(ends,
            (std::vector<Time>{us(110), us(110), us(115), us(115)}));
}

TEST(Planner, FinalWindowGateMatchesTheLegacyCondition) {
  const WindowPlanner p(matrix(2, {0, 30, 10, 0}, 10));
  RoundPlan plan;
  // t0 + global = 110us > deadline 105us: no full window fits, so the round
  // is the deadline-inclusive final window for every shard.
  p.plan({us(100), us(104)}, us(105), 1, 1, plan);
  EXPECT_TRUE(plan.final);
  EXPECT_EQ(plan.length, 0);
}

TEST(Planner, QuantumShrinkIsConservativeAndKeepsProgress) {
  const WindowPlanner p(matrix(2, {0, 30, 10, 0}, 10));
  RoundPlan full;
  RoundPlan half;
  const std::vector<Time> next_t = {us(100), us(101)};
  p.plan(next_t, us(100'000), 1, 1, full);
  p.plan(next_t, us(100'000), 1, 2, half);  // fuzzer claims half lookahead
  ASSERT_EQ(half.length, full.length);
  for (int j = 1; j <= full.length; ++j)
    for (int s = 0; s < 2; ++s) {
      // Shrunk windows never reach past the full ones (claiming less
      // lookahead than certified is always safe)...
      EXPECT_LE(half.end_of(j, s).count(), full.end_of(j, s).count());
      // ...and the round still advances past the earliest event.
      EXPECT_GT(half.end_of(j, s).count(), us(100).count());
    }
  // Exact first row under the halved bounds: {E1+5, E0+15} = {106, 115}.
  EXPECT_EQ(half.end_of(1, 0), us(106));
  EXPECT_EQ(half.end_of(1, 1), us(115));
}

TEST(Planner, IdenticalInputsProduceTheIdenticalPlan) {
  // The determinism contract: plan() is a pure function of its arguments.
  // Each shard's worker calls it independently; any divergence desyncs the
  // horizon protocol.
  const WindowPlanner p(matrix(3, {0, 10, 20, 15, 0, 25, 30, 12, 0}, 10));
  RoundPlan a;
  RoundPlan b;
  const std::vector<Time> next_t = {us(50), us(60), us(70)};
  p.plan(next_t, us(400), 1, 1, a);
  p.plan(next_t, us(400), 1, 1, b);
  ASSERT_EQ(a.length, b.length);
  ASSERT_EQ(a.final, b.final);
  for (int j = 1; j <= a.length; ++j)
    for (int s = 0; s < 3; ++s) EXPECT_EQ(a.end_of(j, s), b.end_of(j, s));
}

TEST(Planner, IdleShardsSaturateInsteadOfWrapping) {
  // An idle shard publishes Time::max(); adding a lookahead to that must
  // saturate, not wrap to a negative time. The fixpoint then pulls the idle
  // shard's horizon down to its busy neighbor's reach (E_1 = 100 + 10 =
  // 110us), so W(1) = {E_1 + 10, E_0 + 10} = {120, 110}us — finite, sane
  // windows on both sides instead of wraparound garbage — and the chain
  // keeps alternating +10us steps up to W(8) = {180, 190}us.
  const WindowPlanner p(PairLookahead::uniform(2, Duration::us(10)));
  RoundPlan plan;
  p.plan({us(100), Time::max()}, us(100'000), 1, 1, plan);
  ASSERT_EQ(plan.length, 8);
  EXPECT_EQ(plan.end_of(1, 0), us(120));
  EXPECT_EQ(plan.end_of(1, 1), us(110));
  EXPECT_EQ(plan.end_of(8, 0), us(180));
  EXPECT_EQ(plan.end_of(8, 1), us(190));
}

}  // namespace
