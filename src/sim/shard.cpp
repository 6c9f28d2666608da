#include "sim/shard.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <limits>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "check/check.hpp"
#include "race/domain.hpp"
#include "sim/choice.hpp"
#include "util/allocgate.hpp"
#include "util/assert.hpp"

namespace pasched::sim {

namespace {

// Ledger site ids for the engine's serialization seams. Registration is
// idempotent by name and cold, so function-local statics keep the ids
// without ordering constraints against other TUs.
[[nodiscard]] int ring_overflow_site() {
  static const int site =
      util::register_seam_site("Ring.overflow", util::SeamKind::Mutex);
  return site;
}

[[nodiscard]] int wrapup_mu_site() {
  static const int site = util::register_seam_site(
      "ShardedEngine.wrapup_mu_", util::SeamKind::Mutex);
  return site;
}

[[nodiscard]] int window_barrier_site() {
  static const int site = util::register_seam_site(
      "ShardedEngine.window_barrier", util::SeamKind::Barrier);
  return site;
}

#if PASCHED_VALIDATE_ENABLED
[[nodiscard]] int horizon_wait_site() {
  static const int site = util::register_seam_site(
      "ShardedEngine.horizon_wait", util::SeamKind::Wait);
  return site;
}
#endif

// Horizon clocks start below any reachable simulation time.
inline constexpr std::int64_t kHorizonUnset =
    std::numeric_limits<std::int64_t>::min();

}  // namespace

ShardedEngine::ShardedEngine(int nodes, Duration lookahead)
    : lookahead_(lookahead), wrapup_mu_(wrapup_mu_site()) {
  PASCHED_EXPECTS(nodes >= 1);
  PASCHED_EXPECTS_MSG(lookahead > Duration::zero(),
                      "conservative execution requires a positive lookahead");
  // Single-node clusters keep everything (including the hub) on one shard:
  // intra-node latency may be below the cross-node lookahead, and with one
  // node there is nothing to run in parallel anyway.
  const int shards = nodes > 1 ? nodes + 1 : 1;
  hub_ = nodes > 1 ? nodes : 0;
  engines_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    engines_.push_back(std::make_unique<Engine>());
    // Fire logs stay armed for the engine's lifetime; each round clears
    // them, so after a stop they hold exactly the final round's fire times
    // (events_processed_before subtracts that tail).
    engines_.back()->arm_fire_log();
  }
  const std::size_t n = static_cast<std::size_t>(shards);
  rings_ = std::vector<util::CacheAligned<std::atomic<PairRing*>>>(n * n);
  arenas_ = std::vector<util::CacheAligned<ShardArena>>(n);
  post_seq_.assign(n, util::CacheAligned<std::uint64_t>{0});
  next_t_.assign(n, util::CacheAligned<Time>{Time::max()});
  horizon_ns_ = std::vector<util::CacheAligned<std::atomic<std::int64_t>>>(n);
  for (auto& h : horizon_ns_)
    h.v.store(kHorizonUnset, std::memory_order_relaxed);
  planner_ = std::make_unique<WindowPlanner>(
      PairLookahead::uniform(shards, lookahead_));
}

ShardedEngine::~ShardedEngine() {
  drain();
  for (auto& slot : rings_) delete slot.v.load(std::memory_order_relaxed);
}

void ShardedEngine::set_pair_lookahead(PairLookahead la) {
  PASCHED_EXPECTS_MSG(la.shards == partitions(),
                      "pair-lookahead matrix shard count mismatch");
  PASCHED_EXPECTS_MSG(
      la.global == lookahead_,
      "matrix global bound must equal the constructor lookahead — both come "
      "from the same fabric certificate");
  planner_ = std::make_unique<WindowPlanner>(std::move(la));
}

PlannerStats ShardedEngine::planner_stats() const {
  PlannerStats st;
  st.rounds = rounds_;
  st.windows = windows_;
  st.final_rounds = final_rounds_;
  st.coalesced = coalesced_.load(std::memory_order_relaxed);
  st.ring_posts = ring_posts_.load(std::memory_order_relaxed);
  st.ring_overflows = ring_overflows_.load(std::memory_order_relaxed);
  return st;
}

ShardedEngine::PairRing& ShardedEngine::ring_for(int src, int dst) {
  auto& slot = rings_[static_cast<std::size_t>(src) * engines_.size() +
                      static_cast<std::size_t>(dst)]
                   .v;
  PairRing* r = slot.load(std::memory_order_acquire);
  if (r != nullptr) return *r;
  // First contact on this producer/consumer pair: a one-time allocation,
  // amortized to zero over the run (rings are never torn down mid-run).
  PASCHED_ALLOC_COLD_REGION();
  auto* fresh = new PairRing(ring_capacity_, ring_overflow_site());
  PairRing* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh,
                                   std::memory_order_acq_rel))
    return *fresh;
  delete fresh;  // another producer won the install race
  return *expected;
}

void ShardedEngine::post(int src_shard, int dst_shard, Time t,
                         Engine::Callback fn) {
  // A component claiming to post from a shard it is not executing on would
  // bypass the whole ownership discipline — catch the spoof at the seam.
  PASCHED_ASSERT_DOMAIN(src_shard, "sim.Router", dst_shard, "post");
  if (src_shard == dst_shard) {
    engine_of(src_shard).schedule_at(t, std::move(fn));
    return;
  }
  Engine& src = engine_of(src_shard);
  const Duration bound = planner_->pairs().at(src_shard, dst_shard);
  PASCHED_CHECK_MSG(t >= src.now() + bound,
                    "cross-shard post violates the guaranteed pair lookahead");
  CrossNodeEvent ev{t,
                    src.now(),
                    bound,
                    src_shard,
                    post_seq_[static_cast<std::size_t>(src_shard)].v++,
                    std::move(fn)};
  if (monitor_ != nullptr)
    monitor_->on_post(src_shard, dst_shard, t, ev.sent_at, ev.src_seq);
  ring_posts_.fetch_add(1, std::memory_order_relaxed);
  PairRing& r = ring_for(src_shard, dst_shard);
  if (!r.ring.try_push(std::move(ev))) {
    // Full ring: spill to the mutex-guarded overflow lane. Overflow keeps
    // the producer's sent_at order, so capped drains can still take a
    // clean prefix.
    ring_overflows_.fetch_add(1, std::memory_order_relaxed);
    const std::scoped_lock lk(r.mu);
    r.overflow.push_back(std::move(ev));
    r.overflow_n.store(r.overflow.size(), std::memory_order_relaxed);
  }
}

void ShardedEngine::request_wrapup(Engine::Callback fn) {
  // Stamp the requesting shard's clock: the wrapup may only run once every
  // shard has simulated past this instant, so its side effects land at
  // per-shard times at or after the request — exactly where the inline
  // SingleRouter puts them, and outside the digest-truncated history.
  Time stamp = Time::zero();
  const race::Domain d = race::current_domain();
  if (d >= 0 && d < partitions()) stamp = engine_of(d).now();
  freeze_fire_logs_.store(true, std::memory_order_release);
  const std::scoped_lock lk(wrapup_mu_);
  wrapups_.push_back(Wrapup{stamp, std::move(fn)});
}

void ShardedEngine::drain_rings(int shard, const RoundPlan* plan, int j) {
  PASCHED_ALLOC_COLD_SCOPE("ShardedEngine::drain_rings");
  const int S = partitions();
  std::vector<CrossNodeEvent>& q =
      arenas_[static_cast<std::size_t>(shard)].v.admit;
  q.clear();
  for (int p = 0; p < S; ++p) {
    if (p == shard) continue;
    PairRing* r = ring_ptr(p, shard);
    if (r == nullptr) continue;
    // Drain cap for chained window j: everything our sender could have
    // produced before the horizon we just waited for. sent_at is monotone
    // per ring, so the due set is a prefix — and it is schedule-derived,
    // never timing-derived, which is what keeps admission deterministic.
    // The max() mirrors run_chain's monotone window clamp: the cap must
    // cover everything below the horizon actually processed, and
    // now_dst - L_p,dst <= now_p guarantees the prefix is already pushed.
    Time cap = Time::max();
    if (plan != nullptr)
      cap = std::max(plan->end_of(j, shard), engine_of(shard).now()) -
            planner_->pairs().at(p, shard);
    while (CrossNodeEvent* head = r->ring.front()) {
      if (plan != nullptr && head->sent_at >= cap) break;
      q.push_back(std::move(*head));
      r->ring.pop();
    }
    if (r->overflow_n.load(std::memory_order_relaxed) != 0) {
      const std::scoped_lock lk(r->mu);
      auto& ov = r->overflow;
      auto split = ov.end();
      if (plan != nullptr)
        split = std::find_if(ov.begin(), ov.end(),
                             [cap](const CrossNodeEvent& e) {
                               return e.sent_at >= cap;
                             });
      for (auto it = ov.begin(); it != split; ++it)
        q.push_back(std::move(*it));
      ov.erase(ov.begin(), split);
      r->overflow_n.store(ov.size(), std::memory_order_relaxed);
    }
  }
  if (q.empty()) return;
  admit_sorted(shard, q);
  q.clear();  // release the delivered callbacks now; keep the capacity
}

PASCHED_HOT void ShardedEngine::admit_sorted(int shard,
                                             std::vector<CrossNodeEvent>& q) {
  PASCHED_ALLOC_HOT_SCOPE("ShardedEngine::admit_sorted");
  // Canonical admission order: posts from different sources are merged by
  // (t, src, seq), so the destination engine's FIFO tie-break sees the same
  // sequence regardless of which worker drained which source first.
  std::sort(q.begin(), q.end(),
            [](const CrossNodeEvent& a, const CrossNodeEvent& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
              return a.src_seq < b.src_seq;
            });
  Engine& e = engine_of(shard);
  for (CrossNodeEvent& ev : q) {
    PASCHED_CHECK_MSG(ev.t >= ev.sent_at + ev.lookahead,
                      "cross-shard event under-stamped its lookahead");
    PASCHED_CHECK_MSG(ev.t >= e.now(),
                      "cross-shard event arrived in the destination's past");
    if (monitor_ != nullptr)
      monitor_->on_admit(shard, ev.src_shard, ev.src_seq, ev.t, e.now());
    e.schedule_at(ev.t, std::move(ev.fn));
  }
}

void ShardedEngine::wait_horizons(int shard, int j) {
  const int S = partitions();
  for (int p = 0; p < S; ++p) {
    if (p == shard) continue;
    const std::int64_t need = plan_.end_of(j - 1, p).count();
    std::atomic<std::int64_t>& h = horizon_ns_[static_cast<std::size_t>(p)].v;
    if (h.load(std::memory_order_acquire) < need) {
#if PASCHED_VALIDATE_ENABLED
      util::SeamObserver* obs = util::seam_observer();
      const std::uint64_t t0 = obs != nullptr ? util::detail::seam_now_ns() : 0;
#endif
      do {
        if (poisoned_.load(std::memory_order_relaxed)) return;
        std::this_thread::yield();
      } while (h.load(std::memory_order_acquire) < need);
#if PASCHED_VALIDATE_ENABLED
      if (obs != nullptr)
        obs->on_wait(horizon_wait_site(), util::detail::seam_now_ns() - t0);
#endif
    }
    // The acquire load above pairs with the owner's release publish: a real
    // happens-before edge whether or not we had to spin.
    if (monitor_ != nullptr) monitor_->on_horizon_wait(shard, p);
  }
}

void ShardedEngine::run_chain(int worker, int nworkers, int S) {
  if (!freeze_fire_logs_.load(std::memory_order_acquire)) {
    for (int s = worker; s < S; s += nworkers) {
      const race::ScopedDomain sd(s);
      engine_of(s).clear_fire_log();
    }
  }
  const int len = plan_.length;
  for (int j = 1; j <= len; ++j) {
    for (int s = worker; s < S; s += nworkers) {
      if (poisoned_.load(std::memory_order_relaxed)) return;
      const race::ScopedDomain sd(s);
      if (j >= 2) {
        // Window j may consume everything peers produced through their
        // window j-1 — wait for those horizons, then drain the due ring
        // prefixes. Window 1 needs neither: the round barrier already
        // parked every producer and the round-boundary drain was total.
        wait_horizons(s, j);
        if (poisoned_.load(std::memory_order_relaxed)) return;
        drain_rings(s, &plan_, j);
      }
      Engine& e = engine_of(s);
      // Monotone clamp: under the fuzzer the per-round shrink can plan a
      // window below where this shard already advanced. Holding the line at
      // now() is safe — the chain rule gives now_s <= now_p + L_ps for
      // every peer p, so nothing a peer posts from here on lands below it —
      // and it keeps the clock (which wrapup stamping and the admission
      // past-check read) monotone and schedule-derived.
      const Time wend = std::max(plan_.end_of(j, s), e.now());
      if (monitor_ != nullptr) monitor_->on_window_begin(s, wend);
      if (e.next_event_time() >= wend) {
        // Quiet-ring batching: nothing due this window (the drained rings
        // were quiet and the engine's next event lies at or past the end),
        // so the window coalesces into the chain as a pure clock advance.
        coalesced_.fetch_add(1, std::memory_order_relaxed);
      }
      // Always run (even when quiet): run_before ends by advancing the
      // clock to the window end, and a deterministic, schedule-derived
      // now() on *every* shard is what the wrapup gate and admission
      // past-checks are built on.
      e.run_before(wend);
      // Monitor before the store: a peer that observes the horizon must find
      // the publish already recorded in the vector-clock model.
      if (monitor_ != nullptr) monitor_->on_horizon_publish(s, wend);
      horizon_ns_[static_cast<std::size_t>(s)].v.store(
          wend.count(), std::memory_order_release);
    }
  }
}

void ShardedEngine::plan_round(Time deadline) noexcept {
  PASCHED_ALLOC_COLD_SCOPE("ShardedEngine::plan_round");
  phase_ ^= 1;
  if (phase_ == 0) return;  // end-of-round barrier: nothing to plan
  // All workers are parked, so wrapups may safely touch any node — but
  // per-pair windows let shard clocks diverge, so a wrapup only runs once
  // every clock has passed its request stamp (otherwise its side effects
  // would be stamped into some lagging shard's pre-completion history and
  // break the execution-mode digest). Deferred wrapups simply wait for the
  // next round: every chained window strictly advances every shard, so the
  // gate opens within a few rounds. They run before the stop checks so
  // completions queued during the final round still execute.
  Time ready = Time::max();
  for (const auto& e : engines_) ready = std::min(ready, e->now());
  for (;;) {
    std::vector<Wrapup> due;
    {
      const std::scoped_lock lk(wrapup_mu_);
      const auto it = std::stable_partition(
          wrapups_.begin(), wrapups_.end(),
          [ready](const Wrapup& w) { return w.stamp > ready; });
      due.assign(std::make_move_iterator(it),
                 std::make_move_iterator(wrapups_.end()));
      wrapups_.erase(it, wrapups_.end());
    }
    if (due.empty()) break;
    for (Wrapup& w : due) w.fn();
  }
  const bool stopping =
      stop_flag_.load(std::memory_order_relaxed) || final_done_;
  if (stopping) {
    // No further rounds will advance the clocks: run any still-deferred
    // wrapups now rather than dropping them (only reachable when a stop
    // raced a completion; the normal path drained everything above).
    for (;;) {
      std::vector<Wrapup> due;
      {
        const std::scoped_lock lk(wrapup_mu_);
        due.swap(wrapups_);
      }
      if (due.empty()) break;
      for (Wrapup& w : due) w.fn();
    }
    round_ = Round::Stop;
    stopped_early_ = stop_flag_.load(std::memory_order_relaxed);
    return;
  }
  // The full lookahead bounds are the *largest* legal window steps; any
  // shorter span is equally conservative (events can only post further
  // into the future). The perturbation seam shrinks every bound toward the
  // 1 ns minimum so the pasched-race fuzzer can vary window phasing
  // without ever breaking the causality guarantee.
  std::int64_t num = 1;
  std::int64_t den = 1;
  if (window_choice_ != nullptr) {
    const std::size_t pick =
        window_choice_->choose(kWindowQuantumBuckets, "shard.window_quantum");
    num = static_cast<std::int64_t>(pick + 1);
    den = static_cast<std::int64_t>(kWindowQuantumBuckets);
  }
  next_t_plain_.resize(next_t_.size());
  for (std::size_t i = 0; i < next_t_.size(); ++i)
    next_t_plain_[i] = next_t_[i].v;
  planner_->plan(next_t_plain_, deadline, num, den, plan_);
  ++rounds_;
  if (plan_.final) {
    round_ = Round::Final;
    final_done_ = true;
    ++final_rounds_;
    ++windows_;
  } else {
    round_ = Round::Window;
    windows_ += static_cast<std::uint64_t>(plan_.length);
  }
  if (monitor_ != nullptr) {
    Time end = deadline;
    if (!plan_.final) {
      end = Time::zero();
      for (int s = 0; s < plan_.shards; ++s)
        end = std::max(end, plan_.end_of(plan_.length, s));
    }
    monitor_->on_plan(end, plan_.final);
  }
}

bool ShardedEngine::run_until(Time deadline, int workers) {
  const int S = partitions();
  const int W = std::clamp(workers, 1, S);
  stop_flag_.store(false, std::memory_order_relaxed);
  poisoned_.store(false, std::memory_order_relaxed);
  freeze_fire_logs_.store(false, std::memory_order_relaxed);
  stopped_early_ = false;
  final_done_ = false;
  phase_ = 0;
  round_ = Round::Window;
  rounds_ = windows_ = final_rounds_ = 0;
  coalesced_.store(0, std::memory_order_relaxed);
  ring_posts_.store(0, std::memory_order_relaxed);
  ring_overflows_.store(0, std::memory_order_relaxed);
  for (auto& h : horizon_ns_) h.v.store(kHorizonUnset, std::memory_order_relaxed);

  std::exception_ptr err;
  std::mutex err_mu;
  {
    auto completion = [this, deadline]() noexcept { plan_round(deadline); };
    util::SeamBarrier bar(window_barrier_site(), W, completion);
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(W));
    for (int w = 0; w < W; ++w) {
      pool.emplace_back([this, w, W, S, deadline, &bar, &err, &err_mu] {
#ifdef __linux__
        // Shard->core pinning, but only when every worker can own a core:
        // pinning an oversubscribed pool just serializes it harder.
        const unsigned hw = std::thread::hardware_concurrency();
        if (hw >= static_cast<unsigned>(W)) {
          cpu_set_t set;
          CPU_ZERO(&set);
          CPU_SET(static_cast<unsigned>(w) % hw, &set);
          (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
        }
#endif
        try {
          for (;;) {
            for (int s = w; s < S; s += W) {
              // Admission mutates the destination shard's engine, so it runs
              // under that shard's domain; the scope ends before the barrier
              // so completion-step wrapups execute at kFreeContext. The
              // round-boundary drain is total (every producer is about to
              // park), so the published next_t covers in-flight posts too.
              const race::ScopedDomain sd(s);
              drain_rings(s, /*plan=*/nullptr, 0);
              next_t_[static_cast<std::size_t>(s)].v =
                  engine_of(s).next_event_time();
            }
            bar.arrive_and_wait();  // completion plans the round
            const Round r = round_;
            if (r == Round::Stop) break;
            if (r == Round::Final) {
              const bool frozen =
                  freeze_fire_logs_.load(std::memory_order_acquire);
              for (int s = w; s < S; s += W) {
                const race::ScopedDomain sd(s);
                if (!frozen) engine_of(s).clear_fire_log();
                if (monitor_ != nullptr) monitor_->on_window_begin(s, deadline);
                engine_of(s).run_until(deadline);
              }
            } else {
              run_chain(w, W, S);
            }
            bar.arrive_and_wait();  // all shards quiesced before next drain
          }
        } catch (...) {
          {
            const std::scoped_lock lk(err_mu);
            if (!err) err = std::current_exception();
          }
          // Release the surviving workers: poisoned_ frees anyone spinning
          // on this worker's horizons, stop_flag_ makes the next plan step
          // exit, and the drop keeps the barrier from waiting on us.
          poisoned_.store(true, std::memory_order_relaxed);
          stop_flag_.store(true, std::memory_order_relaxed);
          bar.arrive_and_drop();
        }
      });
    }
  }  // jthreads join here
  if (err) std::rethrow_exception(err);
  return !stopped_early_;
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& e : engines_) total += e->events_processed();
  return total;
}

std::uint64_t ShardedEngine::events_processed_before(Time t) const {
  // The tail (fires at or past t) lives entirely in the last executed
  // round: every earlier round ended at or before that round's start,
  // which is at or before t when t is inside the last round.
  std::uint64_t total = 0;
  for (const auto& e : engines_)
    total += e->events_processed() - e->fires_at_or_after(t);
  return total;
}

std::size_t ShardedEngine::events_pending() const {
  std::size_t total = 0;
  for (const auto& e : engines_) total += e->events_pending();
  return total;
}

void ShardedEngine::drain() {
  for (auto& slot : rings_) {
    PairRing* r = slot.v.load(std::memory_order_acquire);
    if (r == nullptr) continue;
    while (r->ring.front() != nullptr) r->ring.pop();
    const std::scoped_lock lk(r->mu);
    r->overflow.clear();
    r->overflow_n.store(0, std::memory_order_relaxed);
  }
  for (auto& e : engines_) e->drain();
#if PASCHED_VALIDATE_ENABLED
  for (const auto& e : engines_) {
    PASCHED_CHECK_MSG(e->events_pending() == 0,
                      "shard still holds live events after drain()");
    e->check_consistent();
  }
#endif
}

}  // namespace pasched::sim
