// The discrete-event simulation engine: a time-ordered event queue (an
// indexed 4-ary heap) with stable FIFO tie-breaking and O(log n)
// cancellation. Everything in pasched —
// kernel ticks, IPIs, CPU burst completions, network deliveries, daemon
// timers — is an event scheduled here.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "util/hotpath.hpp"

namespace pasched::sim {

/// Handle to a scheduled event. Cancelling an already-fired or already-
/// cancelled event is a harmless no-op (generation counters detect it).
struct EventId {
  std::uint32_t slot = UINT32_MAX;
  std::uint32_t gen = 0;
  [[nodiscard]] bool valid() const noexcept { return slot != UINT32_MAX; }
  friend bool operator==(EventId a, EventId b) = default;
};

class Engine {
 public:
  using Callback = InlineCallback<48>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()). Events with the
  /// same timestamp fire in scheduling order.
  EventId schedule_at(Time t, Callback fn);
  PASCHED_HOT EventId schedule_after(Duration d, Callback fn) {
    return schedule_at(now_ + d, std::move(fn));
  }

  /// schedule_at for a *delivery*: an event posted through
  /// ShardedEngine::post (sim/shard.hpp), whether it crossed shards or
  /// stayed local. The engine can find the earliest pending one, because a
  /// delivery is the only event that can make a blocked or spinning thread
  /// post at once.
  /// Costs one flag and one count over schedule_at.
  EventId schedule_delivery(Time t, Callback fn);

  /// min(earliest pending delivery, limit). O(1) while no delivery is
  /// pending; otherwise a walk of the heap that prunes at the first
  /// delivery on each path and at `limit`, so it visits only the events due
  /// before the answer.
  [[nodiscard]] Time next_delivery_time(Time limit = Time::max()) const;

  /// Cancels the event if it has not fired yet; no-op otherwise.
  void cancel(EventId id);

  /// True if the event is still pending.
  [[nodiscard]] bool pending(EventId id) const noexcept;

  /// Runs events until the queue is empty or stop() is called.
  void run();

  /// Runs events with timestamp <= deadline; afterwards now() == deadline
  /// (unless stopped earlier). Returns false if stopped before the deadline.
  bool run_until(Time deadline);

  /// Runs events with timestamp strictly < `end`; afterwards now() == end.
  /// This is the conservative-window primitive of the sharded engine: a
  /// window [T', T'+L) is half-open so an event landing exactly on the edge
  /// belongs to the *next* window. Ignores stop() — windows are interrupted
  /// at barrier granularity by the shard pool, never mid-window.
  void run_before(Time end);

  /// Cancels every pending event and releases its slot. Used by the sharded
  /// engine's teardown so shutdown never leaks armed heap entries; after
  /// drain(), events_pending() == 0 and check_consistent() holds.
  void drain();

  /// Heap entries currently allocated. The heap is position-indexed (each
  /// armed slot tracks where its entry sits), so cancel() removes its entry
  /// in O(log n) and no stale entries exist: this equals events_pending()
  /// — the regression test for the cancel() leak asserts exactly that.
  [[nodiscard]] std::size_t queue_footprint() const noexcept {
    return heap_.size();
  }

  /// Fires exactly one event. Returns false if the queue is empty.
  PASCHED_HOT bool step() { return fire_next(); }

  /// Timestamp of the next pending event, or Time::max() if none; does not
  /// advance now().
  [[nodiscard]] Time next_event_time() const noexcept;

  /// Requests that run()/run_until() return after the current event.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  /// Events fired with timestamp strictly below now(). When the engine stops
  /// at a completion event (now() == T_c), this is the mode-invariant
  /// "events before completion" counter: same-timestamp stragglers and the
  /// completing event itself are excluded, exactly like the t < T_c
  /// truncation the canonical digest applies.
  [[nodiscard]] std::uint64_t events_processed_before_now() const noexcept {
    return processed_before_now_;
  }
  [[nodiscard]] std::size_t events_pending() const noexcept { return live_; }

  /// Fire-time log: when armed, every fired event appends its timestamp
  /// (monotone by construction). The sharded engine arms it and clears it at
  /// each window begin, so after a stop the log holds exactly the final
  /// window's fire times — the tail a completion-normalized event count must
  /// subtract (see ShardedEngine::events_processed_before).
  void arm_fire_log() noexcept { fire_log_armed_ = true; }
  void clear_fire_log() noexcept { fire_log_.clear(); }
  /// Logged fires with timestamp >= t (binary search; the log is sorted).
  [[nodiscard]] std::uint64_t fires_at_or_after(Time t) const noexcept;

  /// Full O(n) structural audit of the slot table / heap / free list; throws
  /// check::CheckError on the first inconsistency. Always compiled (calling
  /// it is opt-in); the per-event checks are gated by PASCHED_VALIDATE.
  void check_consistent() const;

 private:
  /// Sentinel heap position for a slot with no heap entry (free or
  /// mid-fire).
  static constexpr std::uint32_t kNoHeapPos = UINT32_MAX;
  /// Children per heap node: the parent of position p is (p - 1) / 4 and
  /// its children are 4p + 1 .. 4p + 4. Half the levels of a binary heap,
  /// and a node's four 24-byte children span at most three cache lines.
  static constexpr std::size_t kHeapArity = 4;

  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    // Index of this slot's entry in heap_ while armed — the
    // backlink that makes cancel() an O(log n) targeted removal instead of
    // a tombstone that compaction must sweep later.
    std::uint32_t heap_pos = kNoHeapPos;
    bool armed = false;
    // Scheduled by schedule_delivery(); counted in deliveries_pending_.
    bool delivery = false;
  };
  struct PASCHED_ARENA HeapItem {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_destructible_v<HeapItem> &&
                    std::is_trivially_copyable_v<HeapItem>,
                "HeapItem lives in the engine's slab-backed heap: the "
                "PASCHED_ARENA contract (PSL604) requires trivial "
                "destruction and memcpy relocation");
  /// True when `a` must fire before `b`: the (t, seq) min-heap order.
  static bool heap_before(const HeapItem& a, const HeapItem& b) noexcept {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx) noexcept;
  // All slot-table/heap/free-list growth funnels through here so
  // the hot path's push_backs never reallocate: after grow_slab(),
  // free_ and heap_ have capacity for every slot. Cold by contract
  // (PASCHED_ALLOC_COLD_REGION).
  void grow_slab();
  void grow_fire_log();
  // Indexed-heap primitives: every move re-anchors Slot::heap_pos. The
  // sifts carry `item` into the hole at `pos` and store it where it stops.
  void heap_place(std::size_t pos) noexcept;
  void sift_up(std::size_t pos, const HeapItem& item) noexcept;
  void sift_down(std::size_t pos, const HeapItem& item) noexcept;
  void heap_push(const HeapItem& item) noexcept;
  void heap_remove_at(std::size_t pos) noexcept;
  bool fire_next();
  void fire_item(const HeapItem& item);
  void min_delivery_below(std::size_t pos, Time& best) const;
  // Every clock advance goes through here so processed_before_now_ stays
  // exact: when now() moves strictly forward, everything processed so far
  // fired strictly in the past.
  void advance_clock(Time t) noexcept {
    if (t > now_) {
      processed_before_now_ = processed_;
      now_ = t;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapItem> heap_;
  std::size_t deliveries_pending_ = 0;  // armed slots with `delivery` set
  Time now_ = Time::zero();
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t processed_before_now_ = 0;
  std::vector<Time> fire_log_;
  bool fire_log_armed_ = false;
  std::size_t live_ = 0;
  bool stopped_ = false;
  // Last fired (t, seq), for the PASCHED_VALIDATE causality check. Always
  // present so the class layout does not depend on the validation flag.
  // The sentinel start time compares below any schedulable time.
  Time last_fired_t_ = Time::from_ns(INT64_MIN);
  std::uint64_t last_fired_seq_ = 0;
};

}  // namespace pasched::sim
