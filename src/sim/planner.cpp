#include "sim/planner.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "util/assert.hpp"

namespace pasched::sim {

namespace {

// Idle shards publish Time::max(); adding a lookahead to that must saturate,
// not wrap.
[[nodiscard]] Time sat_add(Time t, Duration d) {
  if (t == Time::max()) return t;
  const Time r = t + d;
  return r < t ? Time::max() : r;
}

[[nodiscard]] Duration shrink(Duration full, std::int64_t num,
                              std::int64_t den) {
  Duration q = full * num / den;
  if (q < Duration::ns(1)) q = Duration::ns(1);
  return q;
}

}  // namespace

PairLookahead PairLookahead::uniform(int shards, Duration global) {
  PairLookahead la;
  la.shards = shards;
  la.global = global;
  la.bounds.assign(
      static_cast<std::size_t>(shards) * static_cast<std::size_t>(shards),
      global);
  for (int s = 0; s < shards; ++s) la.set(s, s, Duration::zero());
  return la;
}

namespace {

// True when swapping shards a and b leaves the matrix unchanged: equal rows
// and columns against every third shard, and a symmetric a<->b bound.
// Swap-equivalence is transitive (conjugate transpositions), so comparing a
// shard against each class's first member is enough.
[[nodiscard]] bool interchangeable(const PairLookahead& la, int a, int b) {
  if (la.at(a, b) != la.at(b, a)) return false;
  for (int x = 0; x < la.shards; ++x) {
    if (x == a || x == b) continue;
    if (la.at(a, x) != la.at(b, x) || la.at(x, a) != la.at(x, b))
      return false;
  }
  return true;
}

// Per-class minimum and runner-up of one row of shard times: enough to
// answer min over every shard but one in O(1) per class.
struct ClassMinima {
  std::vector<Time> first;
  std::vector<Time> second;
  std::vector<int> arg;  ///< shard holding `first` (-1 while all are max)

  void summarize(const std::vector<int>& class_of, const Time* x, int G) {
    first.assign(static_cast<std::size_t>(G), Time::max());
    second.assign(static_cast<std::size_t>(G), Time::max());
    arg.assign(static_cast<std::size_t>(G), -1);
    for (std::size_t s = 0; s < class_of.size(); ++s) {
      const auto g = static_cast<std::size_t>(class_of[s]);
      if (x[s] < first[g]) {
        second[g] = first[g];
        first[g] = x[s];
        arg[g] = static_cast<int>(s);
      } else if (x[s] < second[g]) {
        second[g] = x[s];
      }
    }
  }
};

}  // namespace

WindowPlanner::WindowPlanner(const PairLookahead& la)
    : shards_(la.shards), global_(la.global) {
  PASCHED_EXPECTS(la.shards >= 1);
  PASCHED_EXPECTS_MSG(la.global > Duration::zero(),
                      "conservative planning requires a positive lookahead");
  PASCHED_EXPECTS(la.bounds.size() == static_cast<std::size_t>(la.shards) *
                                          static_cast<std::size_t>(la.shards));
#if PASCHED_VALIDATE_ENABLED
  for (int s = 0; s < la.shards; ++s)
    for (int d = 0; d < la.shards; ++d)
      if (s != d)
        PASCHED_CHECK_MSG(la.at(s, d) >= la.global,
                          "pair lookahead below the global floor — the "
                          "certificate's matrix-minimum invariant is broken");
#endif
  std::vector<int> first_member;  // class -> its first shard
  class_of_.resize(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s) {
    int g = 0;
    while (g < static_cast<int>(first_member.size()) &&
           !interchangeable(la, first_member[static_cast<std::size_t>(g)], s))
      ++g;
    if (g == static_cast<int>(first_member.size())) first_member.push_back(s);
    class_of_[static_cast<std::size_t>(s)] = g;
  }
  classes_ = static_cast<int>(first_member.size());
  class_bounds_.assign(static_cast<std::size_t>(classes_) *
                           static_cast<std::size_t>(classes_),
                       Duration::zero());
  for (int s = 0; s < shards_; ++s)
    for (int d = 0; d < shards_; ++d)
      if (s != d)
        class_bounds_[class_index(class_of_[static_cast<std::size_t>(s)],
                                  class_of_[static_cast<std::size_t>(d)])] =
            la.at(s, d);
}

void WindowPlanner::plan(const std::vector<Time>& next_t,
                         const std::vector<Time>& out_t, Time deadline,
                         std::int64_t quantum_num, std::int64_t quantum_den,
                         RoundPlan& out) const {
  const int S = shards_;
  PASCHED_EXPECTS(next_t.size() == static_cast<std::size_t>(S));
  PASCHED_EXPECTS(out_t.size() == static_cast<std::size_t>(S));
  out.shards = S;
  out.final = false;
  out.length = 0;

  Time t0 = Time::max();
  for (const Time t : next_t) t0 = std::min(t0, t);
  // Final-window gate, identical to the legacy planner: once no full global
  // window fits below the deadline, every event left in [t0, deadline] can
  // only generate cross-shard work past the deadline, so one inclusive
  // window finishes the run.
  if (t0 >= deadline || sat_add(t0, global_) > deadline) {
    out.final = true;
    return;
  }

  // Effective (possibly fuzz-shrunk) class bounds. Shrinking claims *less*
  // lookahead than guaranteed, which is always conservative; the engine's
  // ring-drain caps keep using the full bounds the events were stamped with.
  const int G = classes_;
  std::vector<Duration> eff(class_bounds_.size());
  for (std::size_t i = 0; i < eff.size(); ++i)
    eff[i] = class_bounds_[i] > Duration::zero()
                 ? shrink(class_bounds_[i], quantum_num, quantum_den)
                 : Duration::zero();
  // min_{p != s}(x_p + L_ps) for every s, from the per-class minima of x.
  const auto reach = [&](const ClassMinima& mins, int s) {
    const int h = class_of_[static_cast<std::size_t>(s)];
    Time r = Time::max();
    for (int g = 0; g < G; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      const Time x = mins.arg[gi] == s ? mins.second[gi] : mins.first[gi];
      r = std::min(r, sat_add(x, eff[class_index(g, h)]));
    }
    return r;
  };
  // Null-message fixpoint x_s = min(x_s, min_p (x_p + L_ps)): the earliest
  // instant each shard could act, counting work forwarded transitively
  // through other shards. Values only ever decrease and are bounded below
  // by min(x) + 1ns; pass k settles every shortest path of k hops, so the
  // sweep ends within S passes.
  ClassMinima mins;
  const auto settle = [&](std::vector<Time>& x) {
    for (bool changed = true; changed;) {
      mins.summarize(class_of_, x.data(), G);
      changed = false;
      for (int s = 0; s < S; ++s) {
        const Time e = reach(mins, s);
        if (e < x[static_cast<std::size_t>(s)]) {
          x[static_cast<std::size_t>(s)] = e;
          changed = true;
        }
      }
    }
  };

  // E: the earliest instant each shard can execute anything. O*: the
  // earliest instant it can post, which is all a peer's window must wait
  // for. With out_t == next_t the two coincide and the plan below is the
  // next-event one.
  std::vector<Time> horizon(next_t);
  settle(horizon);
  out.outputs = out_t;
  settle(out.outputs);

  // Window 1 runs to the earliest delivery any peer's output can make,
  // W(1)_s = min_{p != s}(O*_p + L_ps), but no further than one global
  // lookahead past the shard's own O*_s unless the next-event window
  // W_E(1)_s = min_{p != s}(E_p + L_ps) already reaches past that. Since
  // O* >= E, W(1) >= W_E(1): no window is shorter than the next-event one.
  // Chain up to kWindowBatch windows: each next end is the earliest any
  // incoming neighbor could deliver past its previous end. Rows are
  // pointwise nondecreasing, every entry clamps at the deadline, and
  // W(1)_s >= t0 + 1ns guarantees the round makes progress.
  out.ends.resize(static_cast<std::size_t>(kWindowBatch) *
                  static_cast<std::size_t>(S));
  Time* row = out.ends.data();
  mins.summarize(class_of_, horizon.data(), G);
  for (int s = 0; s < S; ++s) row[s] = reach(mins, s);  // W_E(1)
  const Duration own = shrink(global_, quantum_num, quantum_den);
  mins.summarize(class_of_, out.outputs.data(), G);
  for (int s = 0; s < S; ++s) {
    const Time capped = std::max(
        sat_add(out.outputs[static_cast<std::size_t>(s)], own), row[s]);
    row[s] = std::min(std::min(reach(mins, s), capped), deadline);
  }
  out.length = 1;
  for (int j = 2; j <= kWindowBatch; ++j) {
    const Time* prev = row;
    mins.summarize(class_of_, prev, G);
    row += S;
    bool moved = false;
    for (int s = 0; s < S; ++s) {
      const Time w = std::min(reach(mins, s), deadline);
      row[s] = w;
      if (w > prev[s]) moved = true;
    }
    // A row identical to its predecessor means every shard is pinned at the
    // deadline — further windows would be no-ops, so stop the chain.
    if (!moved) break;
    out.length = j;
  }
}

}  // namespace pasched::sim
