// Block event shards with conservative-window parallel execution.
//
// Every block of contiguous cluster nodes (sim::ShardMap) owns one Engine
// (priority queue + clock). A post between two nodes of one block is a
// plain schedule_at; cross-shard events go through post(), which stamps
// the send time and pushes them into the (source, destination) pair's
// bounded SPSC ring.
//
// Execution advances in conservative windows (Chandy/Misra/Bryant style)
// planned per *sync round* by the WindowPlanner (sim/planner.hpp): each
// round, every shard's own worker publishes its next event time and its
// earliest-output time (see OutputBound), the round rendezvous' completion
// step computes a deterministic chain of up to kWindowBatch per-shard
// windows from the fabric's guaranteed lookahead, and workers execute
// the chain with horizon waits only — before window j each worker spins
// once on its peers' per-worker progress counters (every peer has finished
// window j-1), then for each of its shards drains the due prefix of each
// inbound ring and runs the window. The global rendezvous is crossed twice
// per round (before the plan and after the chain), not once per window;
// wrapups and stop requests are honored at round boundaries, where every
// worker waits at the rendezvous.
//
// Workers never park in the kernel. The rendezvous is a sense-reversing
// util::SpinBarrier: the last worker to arrive runs the completion step and
// bumps the generation the others spin on. It and the horizon waits share
// one util::SpinWait: poll, std::this_thread::yield() between polls, and
// a kStallTimeout deadline past which the waiter poisons the pool and
// throws a check::CheckError naming the worker, the peer it waited for,
// the windows that peer finished against those needed, and every shard's
// clock. A worker that throws, in a window or in the completion step,
// poisons the pool too; every waiter leaves, and run_until rethrows.
//
// The plan is a pure function of the round's published inputs and the ring
// drains are capped by schedule-derived bounds, so which events fire in
// which order never depends on thread timing: --parallel=1 and
// --parallel=N stay bit-identical, and both match the one-shard serial run
// under the audit gate's digest.
//
// Earliest-output time. Only some events can post across shards: those that
// reach a posting thread's program (an MPI task, the I/O daemon) and
// deliveries, which can wake one. At a round boundary each shard publishes
//
//     O_s = max(next_t_s, min(D_s, K_s))
//
// where D_s is its earliest pending delivery (every event scheduled through
// post(), local or admitted; Engine::next_delivery_time) and K_s the
// OutputBound's earliest time a posting thread can next be consulted. The
// planner bounds peers' windows by O instead of next_t, so ticks, daemons
// and compute bursts stop cutting windows short. O = next_t is always
// sound, so a shard with a delivery due within one lookahead of next_t
// publishes that without asking the bound. O is a claim: validated
// builds check in post() that every post's send time is at or past the
// round's O*_src, and throw check::CheckError naming the shard, the round,
// the send time and the claim when it is not. Without an OutputBound,
// O = next_t and the plan is the next-event one.
//
// A one-shard map (ShardMap(nodes, 1), the serial executor) skips the window
// machinery: run_until runs the single engine to the deadline on the calling
// thread, wrapups run inline and stop_all stops the engine at the current
// event. It never computes O.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/planner.hpp"
#include "sim/random.hpp"
#include "sim/shard_map.hpp"
#include "sim/time.hpp"
#include "util/aligned.hpp"
#include "util/hotpath.hpp"
#include "util/spin_wait.hpp"
#include "util/spsc_ring.hpp"

namespace pasched::sim {

/// A cross-shard event in flight: the delivery time plus the send time the
/// conservative executor validates (`t >= sent_at + lookahead` is the
/// causality contract).
struct CrossNodeEvent {
  Time t;
  Time sent_at;
  int src_shard = 0;
  std::uint64_t src_seq = 0;
  Engine::Callback fn;
};

/// Observer of the cross-shard seams — the hooks the race/determinism
/// auditor (race::Monitor) hangs its vector-clock checker on. All methods
/// must be thread-safe under the sharded engine's execution model:
/// on_post runs on the source shard's worker, on_admit on the destination
/// shard's worker, on_window_begin / on_horizon_publish / on_horizon_wait
/// on the owning (respectively waiting) shard's worker, and on_plan in the
/// round rendezvous' completion step (every worker waiting). When no monitor
/// is installed the engine pays one pointer test per seam.
class ShardMonitor {
 public:
  virtual ~ShardMonitor() = default;
  /// A cross-shard post left `src_shard` (its clock at `sent_at`) for
  /// delivery at `t` on `dst_shard`; `src_seq` is the per-source sequence
  /// that identifies the message at admission.
  virtual void on_post(int src_shard, int dst_shard, Time t, Time sent_at,
                       std::uint64_t src_seq) = 0;
  /// The destination drained the message into its engine; `dst_now` is the
  /// destination clock at admission.
  virtual void on_admit(int dst_shard, int src_shard, std::uint64_t src_seq,
                        Time t, Time dst_now) = 0;
  /// `shard`'s worker is about to execute a window ending at `window_end`
  /// (the deadline for the final, inclusive window).
  virtual void on_window_begin(int shard, Time window_end) = 0;
  /// The round rendezvous' completion step planned the next round (ending at
  /// `window_end`): every shard is quiesced, so cross-shard happens-before
  /// is total here. Fires once per *round*, not per chained window.
  virtual void on_plan(Time window_end, bool final_window) = 0;
  /// `shard` finished a chained window at `horizon`; its worker publishes
  /// that with release ordering once all of the worker's shards are done —
  /// the synchronization point peers acquire through on_horizon_wait.
  /// Called *before* the store so a waiter that observes the horizon finds
  /// the publish already recorded. Default no-op: the hooks postdate the
  /// original interface and most monitors only need the post/admit edges.
  virtual void on_horizon_publish(int /*shard*/, Time /*horizon*/) {}
  /// Before `dst_shard`'s next chained window, its worker has observed
  /// `src_shard`'s horizon at or past the value that window needs (an
  /// acquire load pairing with the publish above — a real happens-before
  /// edge even when no spin was necessary). Fires for every src_shard !=
  /// dst_shard, in increasing order.
  virtual void on_horizon_wait(int /*dst_shard*/, int /*src_shard*/) {}
};

class ShardedEngine {
 public:
  /// One shard per block of `map`. `lookahead` must be positive: it is the
  /// guaranteed minimum latency of any cross-shard interaction
  /// (net::guaranteed_lookahead derives it from the fabric config).
  ShardedEngine(const ShardMap& map, Duration lookahead);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Partition -----------------------------------------------------------------
  [[nodiscard]] int partitions() const noexcept {
    return static_cast<int>(engines_.size());
  }
  /// The shard that owns `node`'s events.
  [[nodiscard]] int shard_of_node(int node) const noexcept {
    return map_.shard_of(node);
  }
  /// The guaranteed minimum latency of any cross-shard interaction.
  [[nodiscard]] Duration lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] Engine& engine_of(int shard) {
    return *engines_[static_cast<std::size_t>(shard)];
  }
  /// Delivers `fn` into `dst_shard`'s timeline at `t`. For a cross-shard
  /// post `t` must be at least the lookahead past the source shard's clock
  /// — the conservative guarantee the executor synchronizes on.
  void post(int src_shard, int dst_shard, Time t, Engine::Callback fn);
  /// Runs `fn` once no shard is mid-event: immediately with one shard, at
  /// a later round rendezvous with several. Job-completion bookkeeping (hook
  /// shutdown, aux-thread cancellation) goes through here so it may safely
  /// touch every node.
  void request_wrapup(Engine::Callback fn);
  /// Requests that execution stop at the next safe point.
  void stop_all();

  [[nodiscard]] const ShardMap& shard_map() const noexcept { return map_; }

  // Planner -------------------------------------------------------------------
  /// K_s: the earliest time any posting thread of `shard` can next be
  /// consulted (Time::max() when none can before a delivery wakes it).
  /// Called on the shard's own worker at every round boundary of a
  /// multi-shard run, with the shard's next event time as `floor`; since
  /// O_s = max(next_t_s, ...), it may return any value <= floor as soon as
  /// it knows the answer is at or below it. core::Simulation installs
  /// cluster::Cluster::earliest_post.
  using OutputBound = std::function<Time(int shard, Time floor)>;
  /// Installs the bound (empty restores O = next_t). Set while no workers
  /// run.
  void set_output_bound(OutputBound fn) { output_bound_ = std::move(fn); }
  /// Execution counters of the last (or running) run_until.
  [[nodiscard]] PlannerStats planner_stats() const;

  // Execution -----------------------------------------------------------------
  /// Runs every shard to `deadline` with `workers` threads (clamped to
  /// [1, partitions()]). Worker w is pinned to core w when the host has at
  /// least `workers` cores; oversubscribed hosts leave placement to the OS,
  /// where pinning everyone to the same cores would only hurt. One shard
  /// runs on the calling thread with no pool, rendezvous or pinning. Returns
  /// false if stopped early via stop_all(). Rethrows the first exception a
  /// worker or the completion step threw; throws check::CheckError when a
  /// wait outlasts kStallTimeout.
  bool run_until(Time deadline, int workers);

  /// Work to run once per shard in the next run_until: on the worker that
  /// owns the shard, inside the shard's first window, before any of its
  /// events fire. That first round is planned as though every shard had an
  /// event at its clock, so whatever the prologue schedules at or after
  /// now() lands inside it. core::Simulation launches the job this way, so
  /// the launch runs in parallel. Consumed by that run_until; set while no
  /// workers run.
  void set_prologue(std::function<void(int shard)> fn) {
    prologue_ = std::move(fn);
  }

  /// Per-pair SPSC ring capacity (rounded up to a power of two; 256 unless
  /// set). core::Simulation sizes it for the largest block's task count.
  /// Call before the first post — live rings are not resized.
  void set_ring_capacity(std::size_t cap) noexcept { ring_capacity_ = cap; }

  [[nodiscard]] std::uint64_t events_processed() const;
  /// Events fired with timestamp strictly below `t`. Valid after run_until()
  /// returned with `t` inside or after the round that first requested a
  /// wrapup (the completion-time case): fire logs are cleared per round
  /// until a wrapup request freezes them, so every fire at or past `t`
  /// still sits in them even when the wrapup — and the stop it triggers —
  /// is deferred for a few rounds while lagging shard clocks catch up.
  /// Multi-shard runs drain the rest of their final round past the
  /// completion event, so raw counts legitimately differ from a one-shard
  /// run's while this one must not. A one-shard run stops at the completing
  /// event, so it returns the engine's events_processed_before_now() (`t`
  /// is then the engine's now()).
  [[nodiscard]] std::uint64_t events_processed_before(Time t) const;
  [[nodiscard]] std::size_t events_pending() const;

  /// Cancels all pending events and discards undelivered cross-shard posts.
  /// Under PASCHED_VALIDATE, verifies every shard ends empty and
  /// structurally consistent. Called by the destructor; callable earlier.
  void drain();

  // Auditing ------------------------------------------------------------------
  /// Installs a cross-shard seam observer (non-owning; nullptr to clear).
  /// Set while no workers run.
  void set_monitor(ShardMonitor* m) noexcept { monitor_ = m; }
  [[nodiscard]] ShardMonitor* monitor() const noexcept { return monitor_; }

  /// Window jitter: with a seed installed, each round's window spans are
  /// drawn from a sim::Rng seeded with it — one of kWindowQuantumBuckets
  /// evenly spaced fractions of the lookahead per round — instead of
  /// always spanning the full lookahead. Shrinking the window is always
  /// conservative (the lookahead guarantee is unchanged), so every jittered
  /// run must stay bit-identical to the unjittered one; the pasched-race
  /// window fuzzer uses this to flush out orderings that accidentally
  /// depend on window phasing. std::nullopt restores full-lookahead
  /// windows. Set while no workers run.
  void set_window_jitter(std::optional<std::uint64_t> seed) noexcept {
    window_jitter_.reset();
    if (seed) window_jitter_.emplace(*seed);
  }
  static constexpr std::int64_t kWindowQuantumBuckets = 8;

  /// How long a worker waits for a peer before it declares the run stalled.
  /// Far above any real window or round: the e2e workloads cross thousands
  /// of rounds per second. Time the waiter itself was not scheduled for
  /// (the process stopped or swapped out; util::SpinWait::kPauseGap) does
  /// not count; a peer held up alone that long does.
  static constexpr std::chrono::seconds kStallTimeout{60};

 private:
  enum class Round : std::uint8_t { Window, Final, Stop };

  /// One (source, destination) shard-pair channel: the lock-free SPSC ring
  /// plus a mutex-guarded overflow lane for the rare full-ring case.
  /// Blocking on a full ring would deadlock the window protocol (the
  /// consumer only drains after the producer's horizon advances past the
  /// window doing the pushing), so overload spills instead.
  struct PairRing {
    util::SpscRing<CrossNodeEvent> ring;
    std::mutex mu;
    std::vector<CrossNodeEvent> overflow;  // guarded by mu; sent_at-sorted
    /// Mirror of overflow.size(), updated under mu: lets the consumer skip
    /// the lock entirely on the (overwhelmingly common) empty case. It
    /// starts a cache line, so the consumer's per-drain load does not share
    /// a line with the mutex and lane the producer writes on overflow; the
    /// fields after it never change once the ring is published.
    alignas(util::kCacheLineBytes) std::atomic<std::size_t> overflow_n{0};
    /// Next ring in the destination's inbound list; set before the ring is
    /// published and never changed afterwards.
    PairRing* next_inbound = nullptr;

    explicit PairRing(std::size_t cap) : ring(cap) {}
  };

  /// Per-shard event arena: the admission scratch buffer every ring drain
  /// merges into. Owned by the worker running the shard; capacity persists
  /// across rounds so steady-state drains allocate nothing.
  struct ShardArena {
    std::vector<CrossNodeEvent> admit;
  };

  [[nodiscard]] PairRing& ring_for(int src, int dst);

  /// Drains every inbound ring of `shard` into its engine, walking only
  /// the rings its producers have materialized. With `plan` null, drains
  /// everything (round boundary: all producers wait at the rendezvous).
  /// Otherwise drains each pair's due prefix for chained window `j`:
  /// entries with sent_at < W(j)_dst - L, a cap the horizon wait has
  /// made complete and whose leftovers provably belong to future windows
  /// (DESIGN.md §7).
  void drain_rings(int shard, const RoundPlan* plan, int j);
  /// Hot half of admission: canonical (t, src, seq) ordering plus per-event
  /// delivery into the destination engine. Lock-free by construction.
  PASCHED_HOT void admit_sorted(int shard, std::vector<CrossNodeEvent>& q);
  /// Waits until every other worker's progress counter reaches `windows`
  /// (acquire). Returns early when the run is poisoned; throws the stall
  /// error past the wait's deadline.
  void wait_workers(int worker, int nworkers, std::uint64_t windows,
                    const util::SpinWait& how);
  /// Crosses the round rendezvous, running `completion` if this worker
  /// arrives last. False when the run is poisoned.
  template <class Completion>
  bool cross(int worker, int nworkers, util::SpinBarrier& rendezvous,
             const util::SpinWait& how, Completion&& completion);
  /// The message of the check::CheckError a wait that outlasted
  /// kStallTimeout throws: `worker` waited at `where` for `peer` (-1: every
  /// peer had arrived, so the completion step was running) to finish
  /// `needed` windows.
  [[nodiscard]] std::string stall_message(int worker, int nworkers,
                                          const char* where, int peer,
                                          std::uint64_t needed) const;
  void run_chain(int worker, int nworkers, int S, const util::SpinWait& how);
  /// Publishes `shard`'s next event and earliest-output times for the
  /// coming plan; runs on its worker after the round-boundary drain.
  void publish(int shard);
  void plan_round(Time deadline);
  /// Throws check::CheckError when `src_shard` posts before the round's
  /// O*_src (validated builds only; see post()).
  void check_output_claim(int src_shard) const;

  std::vector<std::unique_ptr<Engine>> engines_;
  /// out_rings_[src][dst]: the rings `src` has materialized, allocated
  /// lazily on first post. Each row is read and written only by the
  /// worker executing `src`.
  std::vector<util::CacheAligned<std::vector<PairRing*>>> out_rings_;
  /// inbound_[dst]: head of the list of rings posting into `dst`. A
  /// producer pushes a fresh ring with a release CAS, so the consumer
  /// discovers new rings without a lock and drains walk only real
  /// channels. The lists own the rings.
  std::vector<util::CacheAligned<std::atomic<PairRing*>>> inbound_;
  std::vector<util::CacheAligned<ShardArena>> arenas_;
  /// A shard's post sequence and execution counters, written only by the
  /// worker running the shard (or by the completion step, every worker
  /// waiting), so they are plain integers; planner_stats() sums them.
  struct ShardCounters {
    std::uint64_t post_seq = 0;  ///< never reset: identifies posts for life
    std::uint64_t coalesced = 0;
    std::uint64_t ring_posts = 0;
    std::uint64_t ring_overflows = 0;
  };
  // Per-shard slots written by distinct domains every window: one cache
  // line each, or the sharded hot path false-shares its own bookkeeping
  // (the PSL503 layout rule guards this).
  std::vector<util::CacheAligned<ShardCounters>> counters_;  // owner-written
  /// What a shard's worker publishes before the round rendezvous.
  struct Published {
    Time next_t = Time::max();
    Time out_t = Time::max();  ///< O_s; equals next_t without an OutputBound
    /// The shard's clock after its last finished window, in ns. Relaxed:
    /// only a stall error reads it, while the owner may still be running.
    std::atomic<std::int64_t> clock_ns{0};
  };
  std::vector<util::CacheAligned<Published>> published_;
  /// Per-worker progress, written only by its worker.
  struct Progress {
    /// Chained windows the worker has finished in this run_until, stored
    /// with release once all its shards ran the window. Peers acquire it
    /// before draining the corresponding ring prefixes.
    std::atomic<std::uint64_t> windows{0};
    /// Rendezvous crossings the worker has arrived at; a stalled
    /// rendezvous names the peers that lag behind it.
    std::atomic<std::uint64_t> crossings{0};
  };
  std::vector<util::CacheAligned<Progress>> progress_;
  ShardMap map_;
  Duration lookahead_;
  std::size_t ring_capacity_ = 256;

  WindowPlanner planner_;

  // Round-plan state: written only in the rendezvous' completion step (all
  // workers waiting), read by workers after it — the rendezvous itself is
  // the synchronization.
  Round round_ = Round::Window;
  RoundPlan plan_;
  // srclint-ok(PSL503): completion-step scratch, only ever touched with
  // every worker waiting at the rendezvous — no concurrent writers exist.
  std::vector<Time> next_t_plain_;
  // srclint-ok(PSL503): completion-step scratch, as next_t_plain_.
  std::vector<Time> out_t_plain_;
  /// True while plan_.outputs holds the running window round's claims.
  bool claims_live_ = false;
  bool final_done_ = false;
  bool stopped_early_ = false;

  // Completion-step counters; the per-shard ones live in counters_.
  std::uint64_t rounds_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t final_rounds_ = 0;

  alignas(util::kCacheLineBytes) std::atomic<bool> stop_flag_{false};
  /// Set when a worker throws or a wait stalls: it is every wait's abort
  /// flag, so the survivors leave their horizon waits and the rendezvous
  /// instead of waiting forever for a worker that will never arrive.
  alignas(util::kCacheLineBytes) std::atomic<bool> poisoned_{false};
  std::mutex wrapup_mu_;
  /// A deferred wrapup: the callback plus the requesting shard's clock at
  /// request time. The completion step only runs it once *every* shard's
  /// clock has passed the stamp — the chained windows' replacement for the
  /// global window's "all clocks agree at the barrier" invariant, and what
  /// keeps wrapup side effects (priority flips, daemon shutdown wakes) out
  /// of the digest-visible history below the completion time.
  struct Wrapup {
    Time stamp;
    Engine::Callback fn;
  };
  std::vector<Wrapup> wrapups_;
  /// The wrapups a completion step runs, moved out of wrapups_ under the
  /// lock; only touched in the completion step and kept for its capacity.
  std::vector<Wrapup> due_;
  /// Set when a wrapup is requested: from the next round on, per-round
  /// fire-log clearing stops, so events_processed_before() still sees every
  /// fire at or past the completion time even when the wrapup's execution
  /// is deferred across rounds.
  alignas(util::kCacheLineBytes) std::atomic<bool> freeze_fire_logs_{false};
  ShardMonitor* monitor_ = nullptr;
  std::optional<Rng> window_jitter_;  ///< drawn in the completion step
  std::function<void(int)> prologue_;
  OutputBound output_bound_;
};

}  // namespace pasched::sim
