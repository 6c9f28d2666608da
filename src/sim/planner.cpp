#include "sim/planner.hpp"

#include <algorithm>

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

// The minimum and runner-up of one row of shard times: enough to answer
// min_{p != s} x_p for every s in O(1).
struct Minima {
  Time first = Time::max();
  Time second = Time::max();
  int arg = -1;  ///< shard holding `first` (-1 while all are max)

  Minima(const Time* x, int n) {
    for (int s = 0; s < n; ++s) {
      if (x[s] < first) {
        second = first;
        first = x[s];
        arg = s;
      } else if (x[s] < second) {
        second = x[s];
      }
    }
  }

  /// min_{p != s} x_p + l.
  [[nodiscard]] Time reach(int s, Duration l) const {
    return sat_add(s == arg ? second : first, l);
  }
};

// Null-message fixpoint x_s = min(x_s, min_{p != s} x_p + l): the earliest
// instant each shard could act, counting work forwarded transitively
// through other shards. One pass reaches it: the holder of the minimum
// cannot undercut its own value, every other shard drops to at most that
// minimum + l, and the minimum does not move, so a second pass would
// change nothing.
void settle(Time* x, int n, Duration l) {
  const Minima m(x, n);
  for (int s = 0; s < n; ++s) x[s] = std::min(x[s], m.reach(s, l));
}

}  // namespace

WindowPlanner::WindowPlanner(int shards, Duration lookahead)
    : shards_(shards), lookahead_(lookahead) {
  PASCHED_EXPECTS(shards >= 1);
  PASCHED_EXPECTS_MSG(lookahead > Duration::zero(),
                      "conservative planning requires a positive lookahead");
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
  // Final-window gate, identical to the legacy planner: once no full window
  // fits below the deadline, every event left in [t0, deadline] can only
  // generate cross-shard work past the deadline, so one inclusive window
  // finishes the run.
  if (t0 >= deadline || sat_add(t0, lookahead_) > deadline) {
    out.final = true;
    return;
  }

  // Effective (possibly fuzz-shrunk) lookahead. Shrinking claims *less*
  // lookahead than guaranteed, which is always conservative; the engine's
  // ring-drain caps keep using the full lookahead.
  const Duration l = shrink(lookahead_, quantum_num, quantum_den);
  out.ends.resize(static_cast<std::size_t>(kWindowBatch) *
                  static_cast<std::size_t>(S));
  Time* row = out.ends.data();

  // E: the earliest instant each shard can execute anything, settled in
  // row 1, which then takes the next-event window W_E(1)_s =
  // min_{p != s} E_p + L. O*: the earliest instant each shard can post,
  // which is all a peer's window must wait for. With out_t == next_t the
  // two coincide and the plan below is the next-event one.
  std::copy(next_t.begin(), next_t.end(), row);
  settle(row, S, l);
  const Minima e(row, S);
  for (int s = 0; s < S; ++s) row[s] = e.reach(s, l);
  out.outputs = out_t;  // copy-assignment reuses the buffer once grown
  settle(out.outputs.data(), S, l);

  // Window 1 runs to the earliest delivery any peer's output can make,
  // W(1)_s = min_{p != s} O*_p + L, but no further than one lookahead past
  // the shard's own O*_s unless W_E(1)_s already reaches past that. Since
  // O* >= E, W(1) >= W_E(1): no window is shorter than the next-event one.
  // Chain up to kWindowBatch windows: each next end is the earliest any
  // peer could deliver past its previous end. Rows are pointwise
  // nondecreasing, every entry clamps at the deadline, and W(1)_s >= t0 +
  // 1ns guarantees the round makes progress.
  const Minima o(out.outputs.data(), S);
  for (int s = 0; s < S; ++s) {
    const Time capped = std::max(
        sat_add(out.outputs[static_cast<std::size_t>(s)], l), row[s]);
    row[s] = std::min(std::min(o.reach(s, l), capped), deadline);
  }
  out.length = 1;
  for (int j = 2; j <= kWindowBatch; ++j) {
    const Time* prev = row;
    const Minima m(prev, S);
    row += S;
    bool moved = false;
    for (int s = 0; s < S; ++s) {
      const Time w = std::min(m.reach(s, l), deadline);
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
