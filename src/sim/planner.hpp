// Conservative window planner for the partitioned core.
//
// The legacy planner synchronized every shard on one quantity per round:
// t0 = min over all shards' next event times, and ran everyone to t0 + L
// behind a global barrier, where L is the fabric's guaranteed lookahead
// (the minimum latency of any cross-shard interaction). That is correct
// but pessimal twice over: (1) a shard whose peers cannot reach it before
// t0 + 3L is still cut off at t0 + L, and (2) every window costs a full
// barrier rendezvous.
//
// This planner replaces both. Every shard publishes two times per round:
// its next event time next_t_s and its earliest-output time O_s >= next_t_s,
// the earliest instant any of its events or threads can call
// ShardedEngine::post (ShardedEngine::OutputBound supplies it; without one
// O_s = next_t_s). The planner computes two null-message fixpoints,
//
//     E_s  = min(next_t_s, min_{p != s} E_p  + L)   (earliest execution)
//     O*_s = min(O_s,      min_{p != s} O*_p + L)   (earliest output)
//
// each counting work forwarded transitively through other shards, then
// chains up to kWindowBatch windows per sync round:
//
//     W(1)_s = min( min_{p != s} O*_p + L,
//                   max(O*_s + L, min_{p != s} E_p + L) )
//     W(j)_s = min_{p != s} W(j-1)_p + L
//
// A shard cannot receive anything before its peers can post, so window 1
// runs to the earliest delivery any peer's output can make — past ticks,
// daemons and compute bursts that only move local state. The second term
// stops a shard within one lookahead of its own earliest output unless the
// next-event window already reaches further, which bounds how far a round
// runs past a job's completion; because O* >= E, no window is ever shorter
// than the next-event plan's. O* is also the round's claim: validated
// builds check every post against it (ShardedEngine::post).
//
// Every window end is a pure function of the round's published inputs, so
// all shards compute the identical schedule independently — no coordinator
// and no timing dependence, which is what keeps --parallel=1 and
// --parallel=N bit-identical. Safety argument (why a shard can never
// receive an event in its past) is spelled out in DESIGN.md §7.
//
// A single shard has no peers, so its one window runs to the deadline;
// ShardedEngine never plans one (a one-shard run skips the planner).
//
// Cost. With one L for every pair, min_{p != s} x_p is the minimum of x
// unless s holds it, and then the runner-up: one O(S) scan of each row
// answers every shard. The fixpoints settle in that one pass (see
// planner.cpp), and planning allocates nothing once RoundPlan's buffers
// have grown to the shard count.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace pasched::sim {

/// Chained windows per sync round. Each chained window is executed under
/// neighbor-horizon waits only; the global barrier is paid once per round.
/// Raising it trades wrapup/stop latency (checked at round boundaries) for
/// fewer rounds; 8 holds the fig5 sync-round count at >= 4x below the
/// legacy one-window-per-round schedule's while the rounds stay short
/// enough that deferred wrapups land within a handful of lookahead
/// intervals.
inline constexpr int kWindowBatch = 8;

/// Execution counters the engine fills as it runs the plans. `rounds` is
/// the number of global synchronizations; the sync-round gates
/// (tests/test_core_simulation.cpp) hold it below recorded counts.
struct PlannerStats {
  std::uint64_t rounds = 0;          ///< sync rounds (global barriers paid)
  std::uint64_t windows = 0;         ///< chained windows executed
  std::uint64_t coalesced = 0;       ///< windows skipped: shard idle, rings quiet
  std::uint64_t final_rounds = 0;    ///< deadline-inclusive rounds (0 or 1)
  std::uint64_t ring_posts = 0;      ///< cross-shard events via SPSC rings
  std::uint64_t ring_overflows = 0;  ///< posts that spilled to the overflow lane
  friend bool operator==(const PlannerStats&, const PlannerStats&) = default;
};

/// One sync round's schedule: either the final deadline-inclusive window or
/// a chain of `length` (at most kWindowBatch) per-shard window ends. Reused
/// across rounds — the planner only ever grows the buffers.
struct RoundPlan {
  bool final = false;
  int length = 0;
  int shards = 0;
  std::vector<Time> ends;  ///< [(j-1)*shards + s], j in 1..length
  /// O*_s, the earliest-output fixpoint: no shard s posts before
  /// outputs[s] in this round. Unset in a final round.
  std::vector<Time> outputs;

  /// End of shard `s`'s j-th chained window (1-based j).
  [[nodiscard]] Time end_of(int j, int s) const {
    return ends[static_cast<std::size_t>(j - 1) *
                    static_cast<std::size_t>(shards) +
                static_cast<std::size_t>(s)];
  }
};

class WindowPlanner {
 public:
  /// Plans `shards` shards, every pair `lookahead` apart.
  WindowPlanner(int shards, Duration lookahead);

  /// Plans one sync round. `next_t` is every shard's published next event
  /// time (Time::max() when idle; cross-shard rings must already be fully
  /// drained into the engines) and `out_t` its earliest-output time
  /// (>= next_t; pass next_t itself for the next-event plan). Window spans
  /// may be shrunk to `quantum_num/quantum_den` of the lookahead (>= 1 ns)
  /// — the race-fuzzer's perturbation seam; shrinking is always
  /// conservative. Pure: identical inputs produce the identical plan.
  void plan(const std::vector<Time>& next_t, const std::vector<Time>& out_t,
            Time deadline, std::int64_t quantum_num,
            std::int64_t quantum_den, RoundPlan& out) const;

 private:
  int shards_;
  Duration lookahead_;
};

}  // namespace pasched::sim
