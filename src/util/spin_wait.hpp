// The partitioned core's one wait primitive: poll the condition, yield
// between polls, give up at a deadline. Waiters never park in the kernel: a
// worker parked at a synchronization point pays a wake-up on every release,
// which at round granularity (thousands of rounds per run) cost 9–15 % of
// parallel wall time against this wait (DESIGN.md §7).
//
// SpinWait waits on one condition (ShardedEngine's horizon waits on a
// peer's progress counter); SpinBarrier is the sense-reversing rendezvous
// built on it (the round crossings). Neither takes a lock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "util/aligned.hpp"

namespace pasched::util {

enum class WaitResult : std::uint8_t {
  Ready,     ///< the condition held
  Aborted,   ///< the abort flag was raised first
  TimedOut,  ///< neither, within the timeout
};

/// How a waiter waits: it polls, calling std::this_thread::yield() between
/// polls, and gives up after `timeout`. It leaves as soon as `*abort` (if
/// given) is set. A spin on a CPU-relax hint before the first yield measured
/// no faster at 200 to 20 000 `pause`s (DESIGN.md §7), so there is none.
class SpinWait {
 public:
  /// A gap this long between two clock reads of one wait means the waiter
  /// itself was not running (the process was stopped, traced or swapped
  /// out), not that its peer stalled: the deadline moves back by the gap.
  static constexpr std::chrono::seconds kPauseGap{1};

  SpinWait(std::chrono::steady_clock::duration timeout,
           const std::atomic<bool>* abort) noexcept
      : timeout_(timeout), abort_(abort) {}

  /// Waits until `ready()` returns true.
  template <class Ready>
  [[nodiscard]] WaitResult wait(Ready&& ready) const {
    if (ready()) return WaitResult::Ready;
    auto last = std::chrono::steady_clock::now();
    auto deadline = last + timeout_;
    for (;;) {
      if (aborted()) return WaitResult::Aborted;
      std::this_thread::yield();
      if (ready()) return WaitResult::Ready;
      const auto now = std::chrono::steady_clock::now();
      if (now - last >= kPauseGap) deadline += now - last;
      last = now;
      if (now >= deadline) return WaitResult::TimedOut;
    }
  }

  [[nodiscard]] bool aborted() const noexcept {
    return abort_ != nullptr && abort_->load(std::memory_order_relaxed);
  }

 private:
  std::chrono::steady_clock::duration timeout_;
  const std::atomic<bool>* abort_;
};

/// A reusable barrier for a fixed set of `parties` threads. The arrival
/// counter and the generation each own a cache line: arrivers decrement the
/// counter, the last one runs the completion step, re-arms the counter and
/// bumps the generation, and everyone else spins on the generation. Once
/// the wait's abort flag is up no completion step runs, and every party
/// leaves with Aborted. The completion step may throw; the exception leaves
/// that last arriver's arrive_and_wait and the barrier broken, so the other
/// parties must be released through the abort flag.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {
    left_.v.store(parties, std::memory_order_relaxed);
  }

  /// Arrives and waits for the other parties; the last to arrive runs
  /// `completion()` before anyone leaves. Everything each party did before
  /// arriving happens-before the completion step, and the completion step
  /// happens-before every party's return with Ready.
  template <class Completion>
  [[nodiscard]] WaitResult arrive_and_wait(const SpinWait& how,
                                           Completion&& completion) {
    // Read before arriving: the generation cannot move until this party
    // has arrived, so `gen` is the one this arrival belongs to.
    const std::uint64_t gen = generation_.v.load(std::memory_order_acquire);
    if (left_.v.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (how.aborted()) return WaitResult::Aborted;
      completion();
      left_.v.store(parties_, std::memory_order_relaxed);
      generation_.v.store(gen + 1, std::memory_order_release);
      return WaitResult::Ready;
    }
    return how.wait([this, gen] {
      return generation_.v.load(std::memory_order_acquire) != gen;
    });
  }

 private:
  CacheAligned<std::atomic<int>> left_;
  CacheAligned<std::atomic<std::uint64_t>> generation_;
  int parties_;
};

}  // namespace pasched::util
