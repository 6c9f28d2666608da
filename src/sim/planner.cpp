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

WindowPlanner::WindowPlanner(PairLookahead la) : la_(std::move(la)) {
  PASCHED_EXPECTS(la_.shards >= 1);
  PASCHED_EXPECTS_MSG(la_.global > Duration::zero(),
                      "conservative planning requires a positive lookahead");
  PASCHED_EXPECTS(la_.bounds.size() ==
                  static_cast<std::size_t>(la_.shards) *
                      static_cast<std::size_t>(la_.shards));
#if PASCHED_VALIDATE_ENABLED
  for (int s = 0; s < la_.shards; ++s)
    for (int d = 0; d < la_.shards; ++d)
      if (s != d)
        PASCHED_CHECK_MSG(la_.at(s, d) >= la_.global,
                          "pair lookahead below the global floor — the "
                          "certificate's matrix-minimum invariant is broken");
#endif
}

void WindowPlanner::plan(const std::vector<Time>& next_t, Time deadline,
                         std::int64_t quantum_num, std::int64_t quantum_den,
                         RoundPlan& out) const {
  const int S = la_.shards;
  PASCHED_EXPECTS(next_t.size() == static_cast<std::size_t>(S));
  out.shards = S;
  out.final = false;
  out.length = 0;

  Time t0 = Time::max();
  for (const Time t : next_t) t0 = std::min(t0, t);
  // Final-window gate, identical to the legacy planner: once no full global
  // window fits below the deadline, every event left in [t0, deadline] can
  // only generate cross-shard work past the deadline, so one inclusive
  // window finishes the run.
  if (t0 >= deadline || sat_add(t0, la_.global) > deadline) {
    out.final = true;
    return;
  }

  if (S == 1) {
    // No pairs to chain over: one window at t0 + quantum. The final gate
    // above already guaranteed t0 + global <= deadline and the quantum
    // never exceeds the global bound, so no clamping is needed.
    const Duration q = shrink(la_.global, quantum_num, quantum_den);
    out.length = 1;
    out.ends.assign(static_cast<std::size_t>(S), t0 + q);
    return;
  }

  // Effective (possibly fuzz-shrunk) pair bounds. Shrinking claims *less*
  // lookahead than guaranteed, which is always conservative; the engine's
  // ring-drain caps keep using the full bounds the events were stamped with.
  std::vector<Duration> eff(la_.bounds.size());
  for (std::size_t i = 0; i < eff.size(); ++i)
    eff[i] = la_.bounds[i] > Duration::zero()
                 ? shrink(la_.bounds[i], quantum_num, quantum_den)
                 : Duration::zero();
  const auto eff_at = [&](int src, int dst) {
    return eff[static_cast<std::size_t>(src) * static_cast<std::size_t>(S) +
               static_cast<std::size_t>(dst)];
  };

  // Null-message fixpoint: the earliest instant each shard could execute
  // anything, counting work forwarded transitively through other shards.
  // Values only ever decrease and are bounded below by t0 + 1ns, so the
  // sweep converges in at most S passes (each pass settles one more shard
  // of the shortest-path tree).
  std::vector<Time> horizon(next_t);
  for (int pass = 0; pass < S; ++pass) {
    bool changed = false;
    for (int s = 0; s < S; ++s) {
      Time e = horizon[static_cast<std::size_t>(s)];
      for (int p = 0; p < S; ++p) {
        if (p == s) continue;
        e = std::min(e, sat_add(horizon[static_cast<std::size_t>(p)],
                                eff_at(p, s)));
      }
      if (e < horizon[static_cast<std::size_t>(s)]) {
        horizon[static_cast<std::size_t>(s)] = e;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Chain up to kWindowBatch windows: each next end is the earliest any
  // incoming neighbor could deliver past its previous end. Rows are
  // pointwise nondecreasing, every entry clamps at the deadline, and
  // W(1)_s >= t0 + 1ns guarantees the round makes progress.
  out.ends.resize(static_cast<std::size_t>(kWindowBatch) *
                  static_cast<std::size_t>(S));
  std::vector<Time> prev = horizon;  // W(0) = E
  for (int j = 1; j <= kWindowBatch; ++j) {
    bool moved = false;
    for (int s = 0; s < S; ++s) {
      Time w = Time::max();
      for (int p = 0; p < S; ++p) {
        if (p == s) continue;
        w = std::min(
            w, sat_add(prev[static_cast<std::size_t>(p)], eff_at(p, s)));
      }
      w = std::min(w, deadline);
      out.ends[static_cast<std::size_t>(j - 1) * static_cast<std::size_t>(S) +
               static_cast<std::size_t>(s)] = w;
      if (w > prev[static_cast<std::size_t>(s)]) moved = true;
    }
    // A row identical to its predecessor means every shard is pinned at the
    // deadline — further windows would be no-ops, so stop the chain.
    if (j > 1 && !moved) break;
    out.length = j;
    for (int s = 0; s < S; ++s)
      prev[static_cast<std::size_t>(s)] = out.end_of(j, s);
  }
}

}  // namespace pasched::sim
