// Golden-schedule tests for the window planner. Each case hand-derives the
// null-message fixpoint and the chained-window recurrence
//
//     E_s    = min(next_t_s, min_{p != s} E_p + L)
//     W(1)_s = min_{p != s} E_p + L
//     W(j)_s = min_{p != s} W(j-1)_p + L
//
// (the next-event plan, which planning on earliest-output times O = next_t
// must reproduce exactly) and pins the planner's output to the exact
// expected times. The planner is the determinism keystone of the
// partitioned core: every shard recomputes this schedule independently, so
// any drift here breaks bit-identity across worker counts. A brute-force
// O(S^2) reference planner checks the minimum-and-runner-up one on
// thousands of random inputs, with and without earliest-output times
// O >= next_t:
//
//     O*_s   = min(O_s, min_{p != s} O*_p + L)
//     W(1)_s = min(min_{p != s} O*_p + L, max(O*_s + L, W_E(1)_s))
//
// where W_E(1) is the next-event window above.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "sim/planner.hpp"

namespace {

using pasched::sim::Duration;
using pasched::sim::kWindowBatch;
using pasched::sim::RoundPlan;
using pasched::sim::Time;
using pasched::sim::WindowPlanner;

constexpr Time us(std::int64_t v) { return Time::from_ns(v * 1000); }

std::vector<Time> plan_ends(const WindowPlanner& p,
                            const std::vector<Time>& next_t, Time deadline,
                            RoundPlan& out) {
  p.plan(next_t, next_t, deadline, 1, 1, out);
  std::vector<Time> ends;
  for (int j = 1; j <= out.length; ++j)
    for (int s = 0; s < out.shards; ++s) ends.push_back(out.end_of(j, s));
  return ends;
}

TEST(Planner, FlatFabricChainsUniformWindows) {
  // The legacy window *shape*, but kWindowBatch chained windows per round —
  // that chaining is the whole sync-round reduction on a flat fabric.
  const WindowPlanner p(3, Duration::us(10));
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

TEST(Planner, ChainStopsEarlyOnceEveryShardIsPinnedAtTheDeadline) {
  const WindowPlanner p(2, Duration::us(10));
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
  const WindowPlanner p(2, Duration::us(10));
  RoundPlan plan;
  // t0 + L = 110us > deadline 105us: no full window fits, so the round
  // is the deadline-inclusive final window for every shard.
  const std::vector<Time> next_t = {us(100), us(104)};
  p.plan(next_t, next_t, us(105), 1, 1, plan);
  EXPECT_TRUE(plan.final);
  EXPECT_EQ(plan.length, 0);
}

TEST(Planner, QuantumShrinkIsConservativeAndKeepsProgress) {
  const WindowPlanner p(2, Duration::us(10));
  RoundPlan full;
  RoundPlan half;
  const std::vector<Time> next_t = {us(100), us(101)};
  p.plan(next_t, next_t, us(100'000), 1, 1, full);
  // The fuzzer claims half the lookahead.
  p.plan(next_t, next_t, us(100'000), 1, 2, half);
  ASSERT_EQ(half.length, full.length);
  for (int j = 1; j <= full.length; ++j)
    for (int s = 0; s < 2; ++s) {
      // Shrunk windows never reach past the full ones (claiming less
      // lookahead than certified is always safe)...
      EXPECT_LE(half.end_of(j, s).count(), full.end_of(j, s).count());
      // ...and the round still advances past the earliest event.
      EXPECT_GT(half.end_of(j, s).count(), us(100).count());
    }
  // Exact first row under the halved lookahead: {E1+5, E0+5} = {106, 105}.
  EXPECT_EQ(half.end_of(1, 0), us(106));
  EXPECT_EQ(half.end_of(1, 1), us(105));
}

TEST(Planner, IdenticalInputsProduceTheIdenticalPlan) {
  // The determinism contract: plan() is a pure function of its arguments.
  // Each shard's worker calls it independently; any divergence desyncs the
  // horizon protocol.
  const WindowPlanner p(3, Duration::us(10));
  RoundPlan a;
  RoundPlan b;
  const std::vector<Time> next_t = {us(50), us(60), us(70)};
  p.plan(next_t, next_t, us(400), 1, 1, a);
  p.plan(next_t, next_t, us(400), 1, 1, b);
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
  const WindowPlanner p(2, Duration::us(10));
  RoundPlan plan;
  const std::vector<Time> next_t = {us(100), Time::max()};
  p.plan(next_t, next_t, us(100'000), 1, 1, plan);
  ASSERT_EQ(plan.length, 8);
  EXPECT_EQ(plan.end_of(1, 0), us(120));
  EXPECT_EQ(plan.end_of(1, 1), us(110));
  EXPECT_EQ(plan.end_of(8, 0), us(180));
  EXPECT_EQ(plan.end_of(8, 1), us(190));
}

TEST(Planner, OutputTimesStretchWindowOne) {
  // Uniform 10 us bounds, every shard's next event at 100 us, but the
  // shards can only post from 1000 us (shard 0) and 5000 us (shards 1, 2):
  //   E  = {100, 100, 100}          W_E(1) = {110, 110, 110}
  //   O* = {1000, 1010, 1010}       (shards 1, 2 hear shard 0 at 1010)
  //   W(1)_0 = min(1010 + 10, max(1000 + 10, 110)) = 1010  (own cap)
  //   W(1)_1 = min(min(1000, 1010) + 10, max(1020, 110)) = 1010
  //   W(1)_2 = 1010, and W(j) = 1000 + 10j us on through W(8) = 1080.
  const WindowPlanner p(3, Duration::us(10));
  RoundPlan plan;
  const std::vector<Time> next_t = {us(100), us(100), us(100)};
  p.plan(next_t, {us(1000), us(5000), us(5000)}, us(100'000), 1, 1, plan);
  ASSERT_FALSE(plan.final);
  ASSERT_EQ(plan.length, 8);
  EXPECT_EQ(plan.outputs, (std::vector<Time>{us(1000), us(1010), us(1010)}));
  for (int j = 1; j <= 8; ++j)
    for (int s = 0; s < 3; ++s) EXPECT_EQ(plan.end_of(j, s), us(1000 + 10 * j));
  // Planned on next event times alone, the same round stops at 110 us.
  RoundPlan next_event;
  p.plan(next_t, next_t, us(100'000), 1, 1, next_event);
  EXPECT_EQ(next_event.end_of(1, 0), us(110));
  EXPECT_EQ(next_event.outputs, next_t);
}

// Brute-force reference: the recurrences evaluated over every pair of
// shards, with a shard-by-shard (Gauss-Seidel) fixpoint sweep repeated until
// nothing changes.
Time ref_add(Time t, Duration d) {
  if (t == Time::max()) return t;
  const Time r = t + d;
  return r < t ? Time::max() : r;
}

Duration ref_shrink(Duration l, std::int64_t num, std::int64_t den) {
  const Duration q = l * num / den;
  return q < Duration::ns(1) ? Duration::ns(1) : q;
}

RoundPlan reference_plan(Duration l, const std::vector<Time>& next_t,
                         Time deadline, std::int64_t num, std::int64_t den) {
  const int S = static_cast<int>(next_t.size());
  const Duration eff = ref_shrink(l, num, den);
  RoundPlan out;
  out.shards = S;
  const Time t0 = *std::min_element(next_t.begin(), next_t.end());
  if (t0 >= deadline || ref_add(t0, l) > deadline) {
    out.final = true;
    return out;
  }
  std::vector<Time> e(next_t);
  for (bool changed = true; changed;) {
    changed = false;
    for (int s = 0; s < S; ++s)
      for (int p = 0; p < S; ++p) {
        if (p == s) continue;
        const Time via = ref_add(e[static_cast<std::size_t>(p)], eff);
        if (via < e[static_cast<std::size_t>(s)]) {
          e[static_cast<std::size_t>(s)] = via;
          changed = true;
        }
      }
  }
  std::vector<Time> prev = e;
  for (int j = 1; j <= kWindowBatch; ++j) {
    std::vector<Time> row(static_cast<std::size_t>(S), Time::max());
    bool moved = false;
    for (int s = 0; s < S; ++s) {
      Time& w = row[static_cast<std::size_t>(s)];
      for (int p = 0; p < S; ++p)
        if (p != s)
          w = std::min(w, ref_add(prev[static_cast<std::size_t>(p)], eff));
      w = std::min(w, deadline);
      if (w > prev[static_cast<std::size_t>(s)]) moved = true;
    }
    if (j > 1 && !moved) break;
    out.length = j;
    out.ends.insert(out.ends.end(), row.begin(), row.end());
    prev = row;
  }
  return out;
}

// The same brute force for planning on earliest-output times: a second
// fixpoint over out_t, then window 1 from the rule in the file comment and
// the unchanged chain. Kept apart from reference_plan, which stays the
// next-event plan verbatim.
RoundPlan output_reference_plan(Duration l, const std::vector<Time>& next_t,
                                const std::vector<Time>& out_t,
                                Time deadline, std::int64_t num,
                                std::int64_t den) {
  const int S = static_cast<int>(next_t.size());
  const Duration eff = ref_shrink(l, num, den);
  RoundPlan out;
  out.shards = S;
  const Time t0 = *std::min_element(next_t.begin(), next_t.end());
  if (t0 >= deadline || ref_add(t0, l) > deadline) {
    out.final = true;
    return out;
  }
  const auto settle = [&](std::vector<Time> x) {
    for (bool changed = true; changed;) {
      changed = false;
      for (int s = 0; s < S; ++s)
        for (int p = 0; p < S; ++p) {
          if (p == s) continue;
          const Time via = ref_add(x[static_cast<std::size_t>(p)], eff);
          if (via < x[static_cast<std::size_t>(s)]) {
            x[static_cast<std::size_t>(s)] = via;
            changed = true;
          }
        }
    }
    return x;
  };
  const std::vector<Time> e = settle(next_t);
  out.outputs = settle(out_t);
  const auto reach = [&](const std::vector<Time>& x, int s) {
    Time w = Time::max();
    for (int p = 0; p < S; ++p)
      if (p != s) w = std::min(w, ref_add(x[static_cast<std::size_t>(p)], eff));
    return w;
  };
  std::vector<Time> prev(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    const Time own = ref_add(out.outputs[static_cast<std::size_t>(s)], eff);
    prev[static_cast<std::size_t>(s)] = std::min(
        std::min(reach(out.outputs, s), std::max(own, reach(e, s))),
        deadline);
  }
  out.length = 1;
  out.ends = prev;
  for (int j = 2; j <= kWindowBatch; ++j) {
    std::vector<Time> row(static_cast<std::size_t>(S));
    bool moved = false;
    for (int s = 0; s < S; ++s) {
      row[static_cast<std::size_t>(s)] = std::min(reach(prev, s), deadline);
      if (row[static_cast<std::size_t>(s)] > prev[static_cast<std::size_t>(s)])
        moved = true;
    }
    if (!moved) break;
    out.length = j;
    out.ends.insert(out.ends.end(), row.begin(), row.end());
    prev = row;
  }
  return out;
}

/// S from 1 to 24 shards, a quarter of them idle at Time::max() and the
/// rest within 60 us of each other, so ties and near-ties between the
/// minimum and the runner-up are common.
std::vector<Time> random_next_times(
    int S, const std::function<std::int64_t(std::int64_t, std::int64_t)>&
               uniform_int) {
  std::vector<Time> next_t;
  for (int s = 0; s < S; ++s)
    next_t.push_back(uniform_int(0, 3) == 0
                         ? Time::max()
                         : us(100) + Duration::ns(uniform_int(0, 60'000)));
  return next_t;
}

TEST(Planner, MatchesTheBruteForceReferenceOnRandomNextTimes) {
  // Random next event times, lookaheads from 1 ns to 50 us, every fuzz
  // quantum.
  std::mt19937_64 rng(20031115);
  const std::function<std::int64_t(std::int64_t, std::int64_t)> uniform_int =
      [&rng](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
      };
  int checked = 0;
  int finals = 0;
  int chains_cut = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int S = static_cast<int>(uniform_int(1, 24));
    const Duration l = Duration::ns(uniform_int(1, 50'000));
    const std::vector<Time> next_t = random_next_times(S, uniform_int);
    const Time deadline =
        uniform_int(0, 9) == 0
            ? Time::max()
            : us(100) + Duration::ns(uniform_int(0, 400'000));
    const std::int64_t num = uniform_int(1, 8);
    const WindowPlanner p(S, l);
    RoundPlan got;
    p.plan(next_t, next_t, deadline, num, 8, got);
    const RoundPlan want = reference_plan(l, next_t, deadline, num, 8);
    ASSERT_EQ(got.final, want.final) << "trial " << trial;
    ASSERT_EQ(got.length, want.length) << "trial " << trial;
    for (int j = 1; j <= want.length; ++j)
      for (int s = 0; s < S; ++s)
        ASSERT_EQ(got.end_of(j, s), want.end_of(j, s))
            << "trial " << trial << " W(" << j << ")_" << s;
    ++checked;
    if (want.final) ++finals;
    if (!want.final && want.length < kWindowBatch) ++chains_cut;
  }
  EXPECT_EQ(checked, 3000);
  // The random inputs reach every branch: final rounds and chains cut
  // short at the deadline as well as full chains.
  EXPECT_GT(finals, 50);
  EXPECT_GT(chains_cut, 50);
}

TEST(Planner, MatchesTheBruteForceReferenceOnRandomOutputTimes) {
  // The same inputs with every shard's O_s >= next_t_s drawn at random (a
  // quarter idle, a quarter at next_t). Beyond matching the reference:
  // O = next_t is the next-event plan exactly, and every first window lies
  // between the next-event one and min_{p != s} O*_p + L.
  std::mt19937_64 rng(20250704);
  const std::function<std::int64_t(std::int64_t, std::int64_t)> uniform_int =
      [&rng](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
      };
  int planned = 0;
  int stretched = 0;
  // One plan buffer for every trial, as the engine reuses its RoundPlan:
  // whatever a larger earlier plan left in it must not leak into a later one.
  RoundPlan got;
  for (int trial = 0; trial < 3000; ++trial) {
    const int S = static_cast<int>(uniform_int(1, 24));
    const Duration l = Duration::ns(uniform_int(1, 50'000));
    const std::vector<Time> next_t = random_next_times(S, uniform_int);
    std::vector<Time> out_t;
    for (const Time t : next_t) {
      const std::int64_t o = uniform_int(0, 3);
      out_t.push_back(o == 0 || t == Time::max()
                          ? t
                          : o == 1 ? Time::max()
                                   : t + Duration::ns(
                                             uniform_int(0, 2'000'000)));
    }
    const Time deadline =
        uniform_int(0, 9) == 0
            ? Time::max()
            : us(100) + Duration::ns(uniform_int(0, 4'000'000));
    const std::int64_t num = uniform_int(1, 8);
    const WindowPlanner p(S, l);
    p.plan(next_t, out_t, deadline, num, 8, got);
    const RoundPlan want =
        output_reference_plan(l, next_t, out_t, deadline, num, 8);
    const auto where = [&] { return "trial " + std::to_string(trial); };
    ASSERT_EQ(got.final, want.final) << where();
    ASSERT_EQ(got.length, want.length) << where();
    for (int j = 1; j <= want.length; ++j)
      for (int s = 0; s < S; ++s)
        ASSERT_EQ(got.end_of(j, s), want.end_of(j, s))
            << where() << " W(" << j << ")_" << s;
    // O = next_t: exactly the next-event plan.
    RoundPlan base;
    p.plan(next_t, next_t, deadline, num, 8, base);
    const RoundPlan today = reference_plan(l, next_t, deadline, num, 8);
    ASSERT_EQ(base.final, today.final) << where();
    ASSERT_EQ(base.length, today.length) << where();
    for (int j = 1; j <= today.length; ++j)
      for (int s = 0; s < S; ++s)
        ASSERT_EQ(base.end_of(j, s), today.end_of(j, s)) << where();
    if (want.final) continue;
    ASSERT_EQ(got.outputs, want.outputs) << where();
    ++planned;
    const Duration eff = std::max(l * num / 8, Duration::ns(1));
    for (int s = 0; s < S; ++s) {
      ASSERT_GE(got.end_of(1, s), base.end_of(1, s)) << where();
      Time reach = Time::max();
      for (int q = 0; q < S; ++q)
        if (q != s)
          reach = std::min(
              reach, ref_add(got.outputs[static_cast<std::size_t>(q)], eff));
      ASSERT_LE(got.end_of(1, s), reach) << where();
      if (got.end_of(1, s) > base.end_of(1, s)) ++stretched;
    }
  }
  // Most rounds plan windows, and output times stretch many of them.
  EXPECT_GT(planned, 2000);
  EXPECT_GT(stretched, 1000);
}

}  // namespace
