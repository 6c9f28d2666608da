// Kernel::earliest_post — the per-node bound K on when a posting thread
// (ThreadClient::posts()) can next be consulted, which the partitioned
// engine turns into a shard's earliest-output time. One case per thread
// state, the three pending kernel entries that pull the bound down to the
// next event, and a randomized soundness check: on random schedules with
// ticks, stretches, preemptions, IPIs, callouts, priority changes and
// message arrivals, no posting thread is ever consulted before a bound the
// kernel gave since the last arrival.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "kern/kernel.hpp"
#include "sim/engine.hpp"

using namespace pasched;
using namespace pasched::sim::literals;
using kern::Kernel;
using kern::RunDecision;
using kern::Thread;
using kern::ThreadSpec;
using kern::ThreadState;
using sim::Duration;
using sim::Engine;
using sim::Time;

namespace {

/// Scripted client: one decision per next() call, then exit.
struct Script : kern::ThreadClient {
  std::vector<RunDecision> steps;
  std::size_t pc = 0;
  RunDecision next(Time /*now*/) override {
    return pc < steps.size() ? steps[pc++] : RunDecision::exit();
  }
};

/// The same, but a posting program.
struct Poster final : Script {
  [[nodiscard]] bool posts() const noexcept override { return true; }
};

kern::Tunables tunables(Duration tick_cost) {
  kern::Tunables t;
  t.tick_cost = tick_cost;
  t.context_switch_cost = Duration::zero();
  return t;
}

ThreadSpec spec(const char* name, kern::Priority prio, kern::CpuId cpu) {
  ThreadSpec s;
  s.name = name;
  s.base_priority = prio;
  s.fixed_priority = true;
  s.home_cpu = cpu;
  return s;
}

Time at(Duration d) { return Time::zero() + d; }

/// The bound as the partitioned engine asks for it: floor = next event.
Time bound(Kernel& k, Engine& e) {
  return k.earliest_post(e.next_event_time());
}

}  // namespace

TEST(KernOutputBound, RunningBurstIsBoundedByItsDeadline) {
  Engine e;
  Kernel k(e, 0, 1, tunables(1_ms), Duration::zero(), 0);
  Poster p;
  p.steps = {RunDecision::compute(25_ms)};
  Thread& t = k.create_thread(spec("p", 60, 0), p);
  k.start();
  k.wake(t);
  e.run_until(at(12_ms));  // the 10 ms tick stretched it by 1 ms
  EXPECT_EQ(bound(k, e), at(26_ms));  // min(26, 12 + 25)
}

TEST(KernOutputBound, KeepsItsLastAnswerUntilAMutatorRuns) {
  Engine e;
  Kernel k(e, 0, 1, tunables(1_ms), Duration::zero(), 0);
  Poster p;
  p.steps = {RunDecision::compute(25_ms)};
  Thread& t = k.create_thread(spec("p", 60, 0), p);
  k.start();
  k.wake(t);
  e.run_until(at(5_ms));
  EXPECT_EQ(bound(k, e), at(25_ms));  // min(25, 5 + 25)
  // The tick has since stretched the burst to 26 ms; the kept answer is
  // still a valid, if conservative, bound.
  e.run_until(at(12_ms));
  EXPECT_EQ(bound(k, e), at(25_ms));
  k.set_priority(t, 60, true);  // any public mutator drops it
  EXPECT_EQ(bound(k, e), at(26_ms));
}

TEST(KernOutputBound, StretchedBurstIsBoundedByNowPlusItsLength) {
  // A 5 ms tick lands 1 ms into a 2 ms burst and pushes its end to 16 ms,
  // but a preemption right now would leave at most the 2 ms of the burst:
  // the thread can be consulted again at 12 ms.
  Engine e;
  Kernel k(e, 0, 1, tunables(5_ms), Duration::zero(), 0);
  Poster p;
  p.steps = {RunDecision::compute(2_ms)};
  Thread& t = k.create_thread(spec("p", 60, 0), p);
  k.start();
  e.run_until(at(9_ms));
  k.wake(t);
  e.run_until(at(10_ms));
  EXPECT_EQ(bound(k, e), at(12_ms));
}

TEST(KernOutputBound, PreemptedPosterWaitsForADispatchPlusItsResidual) {
  Engine e;
  Kernel k(e, 0, 1, tunables(1_ms), Duration::zero(), 0);
  Poster p;
  p.steps = {RunDecision::compute(25_ms)};
  Script hi;
  hi.steps = {RunDecision::compute(3_ms)};
  Thread& tp = k.create_thread(spec("p", 60, 0), p);
  Thread& th = k.create_thread(spec("hi", 40, 0), hi);
  k.start();
  k.wake(tp);
  e.run_until(at(5_ms));
  k.wake(th, 0);  // readied on CPU 0: zero-delay reschedule
  e.run_until(at(5_ms));
  ASSERT_EQ(tp.state(), ThreadState::Ready);
  // 20 ms left; the CPU frees up when hi's burst ends at 8 ms, before the
  // 10 ms tick. hi itself does not post, so it bounds nothing.
  EXPECT_EQ(bound(k, e), at(28_ms));
}

TEST(KernOutputBound, TickStretchedResidualIsClampedToTheBurst) {
  // The 5 ms tick pushes the 2 ms burst's end to 16 ms; a preemption at
  // 10 ms keeps 2 ms of residual, not the 6 ms of wall time left.
  Engine e;
  Kernel k(e, 0, 1, tunables(5_ms), Duration::zero(), 0);
  Poster p;
  p.steps = {RunDecision::compute(2_ms)};
  Script hi;
  hi.steps = {RunDecision::compute(1_ms)};
  Thread& tp = k.create_thread(spec("p", 60, 0), p);
  Thread& th = k.create_thread(spec("hi", 40, 0), hi);
  k.start();
  e.run_until(at(9_ms));
  k.wake(tp);
  e.run_until(at(10_ms));
  k.wake(th, 0);
  e.run_until(at(10_ms));
  ASSERT_EQ(tp.state(), ThreadState::Ready);
  EXPECT_EQ(bound(k, e), at(13_ms));  // hi's burst ends at 11 ms, + 2 ms
}

TEST(KernOutputBound, KickedWhilePreemptedPosterRunsAtItsDispatch) {
  Engine e;
  Kernel k(e, 0, 1, tunables(1_ms), Duration::zero(), 0);
  Poster p;
  p.steps = {RunDecision::spin(), RunDecision::compute(1_ms)};
  Script hi;
  hi.steps = {RunDecision::compute(3_ms)};
  Thread& tp = k.create_thread(spec("p", 60, 0), p);
  Thread& th = k.create_thread(spec("hi", 40, 0), hi);
  k.start();
  k.wake(tp);
  e.run_until(at(5_ms));
  k.wake(th, 0);
  e.run_until(at(5_ms));
  ASSERT_EQ(tp.state(), ThreadState::Ready);
  // Preempted mid-spin: only a message can make it post.
  EXPECT_EQ(bound(k, e), Time::max());
  k.kick(tp);  // the message arrived while it waited for the CPU
  EXPECT_EQ(bound(k, e), at(8_ms));  // consulted when hi's burst ends
}

TEST(KernOutputBound, SpinningBlockedAndDoneThreadsNeverBoundTheNode) {
  Engine e;
  Kernel k(e, 0, 4, tunables(1_ms), Duration::zero(), 0);
  Poster spinner;
  spinner.steps = {RunDecision::spin()};
  Poster blocker;
  blocker.steps = {RunDecision::block()};
  Poster done;  // exits at once
  Script busy;  // a non-posting burst bounds nothing either
  busy.steps = {RunDecision::compute(50_ms)};
  Thread& ts = k.create_thread(spec("spin", 60, 0), spinner);
  Thread& tb = k.create_thread(spec("block", 60, 1), blocker);
  Thread& td = k.create_thread(spec("done", 60, 2), done);
  Thread& tn = k.create_thread(spec("busy", 60, 3), busy);
  k.start();
  for (Thread* t : {&ts, &tb, &td, &tn}) k.wake(*t);
  e.run_until(at(1_ms));
  ASSERT_EQ(ts.state(), ThreadState::Running);
  ASSERT_EQ(tb.state(), ThreadState::Blocked);
  ASSERT_EQ(td.state(), ThreadState::Done);
  EXPECT_EQ(bound(k, e), Time::max());
}

// The pending-entry cases share a node: a kicked, preempted poster (residual
// 0) waits on CPU 0 behind the non-posting `hi`, whose burst ends at 8 ms.
// While a kernel entry that may dispatch is pending, the poster may run at
// the node's next event instead.
class KernOutputBoundEntries : public ::testing::Test {
 protected:
  void SetUp() override {
    tun_.rt_scheduling = true;
    tun_.rt_reverse_preemption = true;
    k_ = std::make_unique<Kernel>(e_, 0, 1, tun_, Duration::zero(), 0);
    p_.steps = {RunDecision::spin(), RunDecision::compute(1_ms)};
    hi_.steps = {RunDecision::compute(3_ms)};
    tp_ = &k_->create_thread(spec("p", 60, 0), p_);
    th_ = &k_->create_thread(spec("hi", 40, 0), hi_);
    k_->start();
    k_->wake(*tp_);
    e_.run_until(at(5_ms));
    k_->wake(*th_, 0);
    e_.run_until(at(5_ms));
    k_->kick(*tp_);
    ASSERT_EQ(tp_->state(), ThreadState::Ready);
    ASSERT_EQ(bound(*k_, e_), at(8_ms));
  }

  kern::Tunables tun_ = tunables(1_ms);
  Engine e_;
  std::unique_ptr<Kernel> k_;
  Poster p_;
  Script hi_;
  Thread* tp_ = nullptr;
  Thread* th_ = nullptr;
};

TEST_F(KernOutputBoundEntries, ZeroDelayReschedPullsTheBoundToNow) {
  // hi drops below the poster from its own CPU: reverse preemption at the
  // next dispatch point, modelled as a zero-delay reschedule.
  k_->set_priority(*th_, 70, true, 0);
  EXPECT_EQ(bound(*k_, e_), at(5_ms));
  e_.run_until(at(5_ms));
  EXPECT_EQ(th_->state(), ThreadState::Ready);
}

TEST_F(KernOutputBoundEntries, PendingIpiPullsTheBoundToItsArrival) {
  k_->set_priority(*th_, 70, true, kern::kExternalActor);
  const Time ipi = at(5_ms) + tun_.ipi_latency;
  ASSERT_EQ(e_.next_event_time(), ipi);
  EXPECT_EQ(bound(*k_, e_), ipi);
  e_.run_until(ipi);
  EXPECT_EQ(tp_->state(), ThreadState::Running);
}

TEST_F(KernOutputBoundEntries, PendingCoschedPriorityChangePullsTheBound) {
  // A co-scheduler pipe message, as core::CoschedManager sends one.
  Kernel* k = k_.get();
  Thread* th = th_;
  const Time pipe = at(5_ms) + 300_us;
  k_->schedule_kernel_entry(300_us, [k, th] {
    k->set_priority(*th, 70, true, kern::kExternalActor);
  });
  EXPECT_EQ(bound(*k_, e_), pipe);
  e_.run_until(pipe);
  // Delivered: the entry no longer counts, and the IPI it sent does.
  EXPECT_EQ(bound(*k_, e_), pipe + tun_.ipi_latency);
}

namespace {

/// A posting script that checks every consultation against the latest
/// bound the test took from the kernel.
struct CheckedPoster final : Script {
  const Time* claim = nullptr;
  int consults = 0;
  RunDecision next(Time now) override {
    EXPECT_GE(now.count(), claim->count()) << "consulted below the bound";
    ++consults;
    return Script::next(now);
  }
  [[nodiscard]] bool posts() const noexcept override { return true; }
};

/// A daemon that wakes from timer callouts, computes, and re-arms.
struct Daemon final : kern::ThreadClient {
  Kernel* k = nullptr;
  Thread* self = nullptr;
  Duration burst;
  Duration period;
  bool issued = false;
  void arm() {
    k->schedule_callout(self->home_cpu(), k->local_now() + period, [this] {
      if (self->state() == ThreadState::Blocked) {
        issued = false;
        k->wake(*self, self->home_cpu());
      } else {
        arm();
      }
    });
  }
  RunDecision next(Time /*now*/) override {
    if (!issued) {
      issued = true;
      return RunDecision::compute(burst);
    }
    arm();
    return RunDecision::block();
  }
};

}  // namespace

TEST(KernOutputBound, NoPosterIsConsultedBeforeAnEarlierBound) {
  int consults = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    const Duration tick_costs[] = {1_us, 500_us, 3_ms};
    kern::Tunables tun = tunables(tick_costs[pick(0, 2)]);
    tun.context_switch_cost = pick(0, 1) == 0 ? Duration::zero() : 15_us;
    tun.rt_scheduling = pick(0, 1) == 1;
    tun.rt_reverse_preemption = pick(0, 1) == 1;
    tun.rt_multi_ipi = pick(0, 1) == 1;
    tun.synchronized_ticks = pick(0, 1) == 1;
    const int ncpus = static_cast<int>(pick(1, 4));
    Engine e;
    Kernel k(e, 0, ncpus, tun, Duration::zero(), seed);
    Time claim = Time::zero();

    std::vector<std::unique_ptr<CheckedPoster>> posters;
    std::vector<Thread*> poster_threads;
    for (int i = static_cast<int>(pick(1, 4)); i > 0; --i) {
      auto p = std::make_unique<CheckedPoster>();
      p->claim = &claim;
      for (int s = static_cast<int>(pick(1, 8)); s > 0; --s) {
        const std::int64_t kind = pick(0, 5);
        p->steps.push_back(kind == 0   ? RunDecision::spin()
                           : kind == 1 ? RunDecision::block()
                                       : RunDecision::compute(Duration::us(
                                             pick(100, 30'000))));
      }
      ThreadSpec ts = spec("poster", static_cast<kern::Priority>(pick(40, 90)),
                           static_cast<kern::CpuId>(pick(0, ncpus - 1)));
      ts.stealable = pick(0, 1) == 1;
      poster_threads.push_back(&k.create_thread(ts, *p));
      posters.push_back(std::move(p));
    }
    std::vector<std::unique_ptr<Daemon>> daemons;
    for (int i = static_cast<int>(pick(1, 3)); i > 0; --i) {
      auto d = std::make_unique<Daemon>();
      d->k = &k;
      d->burst = Duration::us(pick(50, 8'000));
      d->period = Duration::us(pick(1'000, 40'000));
      ThreadSpec ts = spec("daemon", static_cast<kern::Priority>(pick(30, 100)),
                           static_cast<kern::CpuId>(pick(0, ncpus - 1)));
      d->self = &k.create_thread(ts, *d);
      daemons.push_back(std::move(d));
    }
    k.start();
    for (Thread* t : poster_threads) k.wake(*t);
    for (auto& d : daemons) d->arm();
    // Priority changes from tick context (as the co-scheduler's timer
    // does) and through pipe messages (kernel entries).
    for (int i = static_cast<int>(pick(0, 6)); i > 0; --i) {
      Thread* t = poster_threads[static_cast<std::size_t>(
          pick(0, static_cast<std::int64_t>(poster_threads.size()) - 1))];
      const auto prio = static_cast<kern::Priority>(pick(30, 100));
      const auto cpu = static_cast<kern::CpuId>(pick(0, ncpus - 1));
      Kernel* kp = &k;
      if (pick(0, 1) == 0) {
        k.schedule_callout(cpu, Time::zero() + Duration::us(pick(0, 80'000)),
                           [kp, t, prio, cpu] {
                             kp->set_priority(*t, prio, true, cpu);
                           });
      } else {
        k.schedule_kernel_entry(Duration::us(pick(0, 80'000)), [kp, t, prio] {
          kp->set_priority(*t, prio, true, kern::kExternalActor);
        });
      }
    }
    // Take a bound between every two events; a bound holds for the whole
    // future until something is delivered, so the running maximum must too.
    // Now and then a message arrives for a poster: it kicks a spinning one
    // or wakes a blocked one, and may make it post at once, so the claim
    // falls back to now (as D_s would pull O_s there).
    const Time horizon = at(150_ms);
    while (e.next_event_time() < horizon) {
      if (pick(0, 40) == 0) {
        Thread* t = poster_threads[static_cast<std::size_t>(
            pick(0, static_cast<std::int64_t>(poster_threads.size()) - 1))];
        claim = e.now();
        if (t->state() == ThreadState::Blocked)
          k.wake(*t);
        else
          k.kick(*t);  // a no-op unless it waits in a spin
      }
      const Time floor = e.next_event_time();
      claim = std::max(claim, std::max(floor, k.earliest_post(floor)));
      e.step();
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "seed " << seed << " at t=" << e.now().count();
        return;
      }
    }
    for (const auto& p : posters) consults += p->consults;
  }
  // The schedules keep posters busy: thousands of consultations checked.
  EXPECT_GT(consults, 1000);
}
