#include "sim/shard.hpp"

#include <algorithm>
#include <barrier>
#include <exception>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "check/check.hpp"
#include "race/domain.hpp"
#include "util/allocgate.hpp"
#include "util/assert.hpp"

namespace pasched::sim {

ShardedEngine::ShardedEngine(const ShardMap& map, Duration lookahead)
    : map_(map), lookahead_(lookahead), planner_(map.shards(), lookahead) {
  const int shards = map_.shards();
  engines_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    engines_.push_back(std::make_unique<Engine>());
    // Fire logs stay armed for the engine's lifetime; each round clears
    // them, so after a stop they hold exactly the final round's fire times
    // (events_processed_before subtracts that tail). A one-shard run stops
    // at the completing event itself and needs no log.
    if (shards > 1) engines_.back()->arm_fire_log();
  }
  const std::size_t n = static_cast<std::size_t>(shards);
  out_rings_ = std::vector<util::CacheAligned<std::vector<PairRing*>>>(n);
  for (auto& row : out_rings_) row.v.assign(n, nullptr);
  inbound_ = std::vector<util::CacheAligned<std::atomic<PairRing*>>>(n);
  arenas_ = std::vector<util::CacheAligned<ShardArena>>(n);
  counters_.assign(n, util::CacheAligned<ShardCounters>{});
  published_.assign(n, util::CacheAligned<Published>{});
}

ShardedEngine::~ShardedEngine() {
  drain();
  for (auto& head : inbound_) {
    PairRing* r = head.v.load(std::memory_order_acquire);
    while (r != nullptr) delete std::exchange(r, r->next_inbound);
  }
}

PlannerStats ShardedEngine::planner_stats() const {
  PlannerStats st;
  st.rounds = rounds_;
  st.windows = windows_;
  st.final_rounds = final_rounds_;
  for (const auto& c : counters_) {
    st.coalesced += c.v.coalesced;
    st.ring_posts += c.v.ring_posts;
    st.ring_overflows += c.v.ring_overflows;
  }
  return st;
}

ShardedEngine::PairRing& ShardedEngine::ring_for(int src, int dst) {
  PairRing*& slot = out_rings_[static_cast<std::size_t>(src)]
                         .v[static_cast<std::size_t>(dst)];
  if (slot != nullptr) return *slot;
  // First contact on this producer/consumer pair: a one-time allocation,
  // amortized to zero over the run (rings are never torn down mid-run).
  PASCHED_ALLOC_COLD_REGION();
  slot = new PairRing(ring_capacity_);
  // Other producers may push onto the same list concurrently; the release
  // CAS publishes the ring's construction and its next link together.
  std::atomic<PairRing*>& head = inbound_[static_cast<std::size_t>(dst)].v;
  PairRing* next = head.load(std::memory_order_relaxed);
  do {
    slot->next_inbound = next;
  } while (!head.compare_exchange_weak(next, slot, std::memory_order_acq_rel,
                                       std::memory_order_relaxed));
  return *slot;
}

void ShardedEngine::post(int src_shard, int dst_shard, Time t,
                         Engine::Callback fn) {
  // A component claiming to post from a shard it is not executing on would
  // bypass the whole ownership discipline — catch the spoof at the seam.
  PASCHED_ASSERT_DOMAIN(src_shard, "sim.ShardedEngine", dst_shard, "post");
#if PASCHED_VALIDATE_ENABLED
  if (claims_live_) check_output_claim(src_shard);
#endif
  if (src_shard == dst_shard) {
    // A local delivery can wake a posting thread as surely as an admitted
    // one, so multi-shard runs track it for the earliest-output bound.
    Engine& e = engine_of(src_shard);
    if (partitions() == 1)
      e.schedule_at(t, std::move(fn));
    else
      e.schedule_delivery(t, std::move(fn));
    return;
  }
  Engine& src = engine_of(src_shard);
  PASCHED_CHECK_MSG(t >= src.now() + lookahead_,
                    "cross-shard post violates the guaranteed lookahead");
  ShardCounters& c = counters_[static_cast<std::size_t>(src_shard)].v;
  CrossNodeEvent ev{t, src.now(), src_shard, c.post_seq++, std::move(fn)};
  if (monitor_ != nullptr)
    monitor_->on_post(src_shard, dst_shard, t, ev.sent_at, ev.src_seq);
  ++c.ring_posts;
  PairRing& r = ring_for(src_shard, dst_shard);
  if (!r.ring.try_push(std::move(ev))) {
    // Full ring: spill to the mutex-guarded overflow lane. Overflow keeps
    // the producer's sent_at order, so capped drains can still take a
    // clean prefix.
    ++c.ring_overflows;
    const std::scoped_lock lk(r.mu);
    r.overflow.push_back(std::move(ev));
    r.overflow_n.store(r.overflow.size(), std::memory_order_relaxed);
  }
}

void ShardedEngine::check_output_claim(int src_shard) const {
  const Time sent_at = engines_[static_cast<std::size_t>(src_shard)]->now();
  const Time claim = plan_.outputs[static_cast<std::size_t>(src_shard)];
  if (sent_at >= claim) return;
  throw check::CheckError(
      "shard " + std::to_string(src_shard) + " posted at sent_at=" +
      std::to_string(sent_at.count()) + " ns in round " +
      std::to_string(rounds_) +
      ", before its earliest-output claim O*=" +
      std::to_string(claim.count()) +
      " ns — the OutputBound claimed a later first post than the shard made");
}

void ShardedEngine::request_wrapup(Engine::Callback fn) {
  // One shard: no other clock to wait for, so the wrapup runs inline.
  if (partitions() == 1) {
    fn();
    return;
  }
  // Stamp the requesting shard's clock: the wrapup may only run once every
  // shard has simulated past this instant, so its side effects land at
  // per-shard times at or after the request — exactly where the one-shard
  // inline call puts them, and outside the digest-truncated history.
  Time stamp = Time::zero();
  const race::Domain d = race::current_domain();
  if (d >= 0 && d < partitions()) stamp = engine_of(d).now();
  freeze_fire_logs_.store(true, std::memory_order_release);
  const std::scoped_lock lk(wrapup_mu_);
  wrapups_.push_back(Wrapup{stamp, std::move(fn)});
}

void ShardedEngine::drain_rings(int shard, const RoundPlan* plan, int j) {
  PASCHED_ALLOC_COLD_SCOPE("ShardedEngine::drain_rings");
  std::vector<CrossNodeEvent>& q =
      arenas_[static_cast<std::size_t>(shard)].v.admit;
  q.clear();
  // The acquire load pairs with the producers' release CAS. Every ring
  // holding a due event was pushed before its producer's worker published
  // the horizon this drain waited for, so a ring that appears later can
  // only hold events of future windows.
  for (PairRing* r = inbound_[static_cast<std::size_t>(shard)].v.load(
           std::memory_order_acquire);
       r != nullptr; r = r->next_inbound) {
    // Drain cap for chained window j: everything our sender could have
    // produced before the horizon we just waited for. sent_at is monotone
    // per ring, so the due set is a prefix — and it is schedule-derived,
    // never timing-derived, which is what keeps admission deterministic.
    // The max() mirrors run_chain's monotone window clamp: the cap must
    // cover everything below the horizon actually processed, and
    // now_dst - L <= now_p guarantees the prefix is already pushed.
    Time cap = Time::max();
    if (plan != nullptr)
      cap = std::max(plan->end_of(j, shard), engine_of(shard).now()) -
            lookahead_;
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
    PASCHED_CHECK_MSG(ev.t >= ev.sent_at + lookahead_,
                      "cross-shard event under-stamped its lookahead");
    PASCHED_CHECK_MSG(ev.t >= e.now(),
                      "cross-shard event arrived in the destination's past");
    if (monitor_ != nullptr)
      monitor_->on_admit(shard, ev.src_shard, ev.src_seq, ev.t, e.now());
    e.schedule_delivery(ev.t, std::move(ev.fn));
  }
}

void ShardedEngine::wait_workers(int worker, int nworkers,
                                 std::uint64_t windows) {
  for (int v = 0; v < nworkers; ++v) {
    if (v == worker) continue;
    std::atomic<std::uint64_t>& done = progress_[static_cast<std::size_t>(v)].v;
    if (done.load(std::memory_order_acquire) >= windows) continue;
    do {
      if (poisoned_.load(std::memory_order_relaxed)) return;
      std::this_thread::yield();
    } while (done.load(std::memory_order_acquire) < windows);
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
  const bool prologue = prologue_ && rounds_ == 1;
  std::atomic<std::uint64_t>& progress =
      progress_[static_cast<std::size_t>(worker)].v;
  // Every worker runs every window of every round, so all counters agree
  // at the round barrier.
  const std::uint64_t base = progress.load(std::memory_order_relaxed);
  for (int j = 1; j <= len; ++j) {
    if (j >= 2) {
      // Window j may consume everything peers produced through their
      // window j-1 — wait once for every other worker to finish it. Window
      // 1 needs no wait: the round barrier already parked every producer
      // and the round-boundary drain was total. Shards of this worker
      // finished window j-1 in program order.
      wait_workers(worker, nworkers, base + static_cast<std::uint64_t>(j - 1));
    }
    for (int s = worker; s < S; s += nworkers) {
      if (poisoned_.load(std::memory_order_relaxed)) return;
      const race::ScopedDomain sd(s);
      if (j >= 2) {
        // The wait above covered every peer shard; monitors still get one
        // acquire edge per (shard, peer) pair.
        if (monitor_ != nullptr)
          for (int p = 0; p < S; ++p)
            if (p != s) monitor_->on_horizon_wait(s, p);
        drain_rings(s, &plan_, j);
      }
      Engine& e = engine_of(s);
      // Monotone clamp: under the fuzzer the per-round shrink can plan a
      // window below where this shard already advanced. Holding the line at
      // now() is safe — the chain rule gives now_s <= now_p + L for
      // every peer p, so nothing a peer posts from here on lands below it —
      // and it keeps the clock (which wrapup stamping and the admission
      // past-check read) monotone and schedule-derived.
      const Time wend = std::max(plan_.end_of(j, s), e.now());
      if (monitor_ != nullptr) monitor_->on_window_begin(s, wend);
      if (j == 1 && prologue) prologue_(s);
      if (e.next_event_time() >= wend) {
        // Quiet-ring batching: nothing due this window (the drained rings
        // were quiet and the engine's next event lies at or past the end),
        // so the window coalesces into the chain as a pure clock advance.
        ++counters_[static_cast<std::size_t>(s)].v.coalesced;
      }
      // Always run (even when quiet): run_before ends by advancing the
      // clock to the window end, and a deterministic, schedule-derived
      // now() on *every* shard is what the wrapup gate and admission
      // past-checks are built on.
      e.run_before(wend);
      // Monitor before the store: a peer that observes the horizon must find
      // the publish already recorded in the vector-clock model.
      if (monitor_ != nullptr) monitor_->on_horizon_publish(s, wend);
    }
    progress.store(base + static_cast<std::uint64_t>(j),
                   std::memory_order_release);
  }
}

void ShardedEngine::publish(int shard) {
  Engine& e = engine_of(shard);
  Published& p = published_[static_cast<std::size_t>(shard)].v;
  p.next_t = e.next_event_time();
  p.out_t = p.next_t;
  if (!output_bound_ || p.next_t == Time::max()) return;
  // O_s = max(next_t, min(D_s, K_s)). A delivery due within one lookahead
  // of next_t leaves O less than a window's worth above next_t, too little
  // to pay the bound's scan for (next_t is always a sound O). The bound may
  // stop looking once it reaches next_t, and the delivery walk once it
  // reaches K.
  const Time near = p.next_t + lookahead_;
  if (e.next_delivery_time(near) < near) return;
  const Time k = output_bound_(shard, p.next_t);
  if (k <= p.next_t) return;
  p.out_t = std::max(p.next_t, e.next_delivery_time(k));
}

void ShardedEngine::stop_all() {
  stop_flag_.store(true, std::memory_order_relaxed);
  if (partitions() == 1) engines_.front()->stop();
}

void ShardedEngine::plan_round(Time deadline) noexcept {
  PASCHED_ALLOC_COLD_SCOPE("ShardedEngine::plan_round");
  phase_ ^= 1;
  if (phase_ == 0) return;  // end-of-round barrier: nothing to plan
  // All workers are parked, so wrapups may safely touch any node — but
  // chained windows let shard clocks diverge, so a wrapup only runs once
  // every clock has passed its request stamp (otherwise its side effects
  // would be stamped into some lagging shard's pre-completion history and
  // break the execution-mode digest). Deferred wrapups simply wait for the
  // next round: every chained window strictly advances every shard, so the
  // gate opens within a few rounds. They run before the stop checks so
  // completions queued during the final round still execute.
  Time ready = Time::max();
  for (const auto& e : engines_) ready = std::min(ready, e->now());
  // The finished round's claims expire here. A wrapup runs after the
  // shards published their output times and may change what they can
  // post, so a round in which one ran plans on next event times.
  claims_live_ = false;
  bool wrapped_up = false;
  for (;;) {
    {
      const std::scoped_lock lk(wrapup_mu_);
      const auto it = std::stable_partition(
          wrapups_.begin(), wrapups_.end(),
          [ready](const Wrapup& w) { return w.stamp > ready; });
      due_.assign(std::make_move_iterator(it),
                  std::make_move_iterator(wrapups_.end()));
      wrapups_.erase(it, wrapups_.end());
    }
    if (due_.empty()) break;
    wrapped_up = true;
    for (Wrapup& w : due_) w.fn();
    due_.clear();
  }
  const bool stopping =
      stop_flag_.load(std::memory_order_relaxed) || final_done_;
  if (stopping) {
    // No further rounds will advance the clocks: run any still-deferred
    // wrapups now rather than dropping them (only reachable when a stop
    // raced a completion; the normal path drained everything above).
    for (;;) {
      {
        const std::scoped_lock lk(wrapup_mu_);
        due_.swap(wrapups_);
      }
      if (due_.empty()) break;
      for (Wrapup& w : due_) w.fn();
      due_.clear();
    }
    round_ = Round::Stop;
    stopped_early_ = stop_flag_.load(std::memory_order_relaxed);
    return;
  }
  // The full lookahead is the *largest* legal window step; any shorter
  // span is equally conservative (events can only post further into the
  // future). Window jitter shrinks the step toward the 1 ns minimum so the
  // pasched-race fuzzer can vary window phasing without ever breaking the
  // causality guarantee.
  std::int64_t num = 1;
  std::int64_t den = 1;
  if (window_jitter_) {
    den = kWindowQuantumBuckets;
    num = window_jitter_->uniform_int(0, den - 1) + 1;
  }
  next_t_plain_.resize(published_.size());
  out_t_plain_.resize(published_.size());
  for (std::size_t i = 0; i < published_.size(); ++i) {
    next_t_plain_[i] = published_[i].v.next_t;
    out_t_plain_[i] = wrapped_up ? next_t_plain_[i] : published_[i].v.out_t;
    // The prologue runs inside the first round and may schedule, and post,
    // at now().
    if (prologue_ && rounds_ == 0) {
      next_t_plain_[i] = std::min(next_t_plain_[i], engines_[i]->now());
      out_t_plain_[i] = next_t_plain_[i];
    }
  }
  planner_.plan(next_t_plain_, out_t_plain_, deadline, num, den, plan_);
  ++rounds_;
  claims_live_ = !plan_.final;
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
  claims_live_ = false;
  phase_ = 0;
  round_ = Round::Window;
  rounds_ = windows_ = final_rounds_ = 0;
  for (auto& c : counters_) {
    c.v.coalesced = 0;
    c.v.ring_posts = 0;
    c.v.ring_overflows = 0;
  }
  if (S == 1) {
    // One shard has no peers to synchronize with: run it straight to the
    // deadline on the calling thread. The engine stops at the event that
    // calls stop_all(), so now() is the completion time.
    const auto prologue = std::exchange(prologue_, nullptr);
    if (prologue) prologue(0);
    return engines_.front()->run_until(deadline);
  }
  progress_ = std::vector<util::CacheAligned<std::atomic<std::uint64_t>>>(
      static_cast<std::size_t>(W));

  std::exception_ptr err;
  std::mutex err_mu;
  {
    auto completion = [this, deadline]() noexcept { plan_round(deadline); };
    std::barrier bar(W, completion);
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
              // park), so the published times cover in-flight posts too.
              const race::ScopedDomain sd(s);
              drain_rings(s, /*plan=*/nullptr, 0);
              publish(s);
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
                if (prologue_ && rounds_ == 1) prologue_(s);
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
  prologue_ = nullptr;
  claims_live_ = false;
  if (err) std::rethrow_exception(err);
  return !stopped_early_;
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& e : engines_) total += e->events_processed();
  return total;
}

std::uint64_t ShardedEngine::events_processed_before(Time t) const {
  if (partitions() == 1) return engines_.front()->events_processed_before_now();
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
  for (auto& head : inbound_) {
    for (PairRing* r = head.v.load(std::memory_order_acquire); r != nullptr;
         r = r->next_inbound) {
      while (r->ring.front() != nullptr) r->ring.pop();
      const std::scoped_lock lk(r->mu);
      r->overflow.clear();
      r->overflow_n.store(0, std::memory_order_relaxed);
    }
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
