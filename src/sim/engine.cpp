#include "sim/engine.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "util/allocgate.hpp"
#include "util/assert.hpp"
#include "util/hotpath.hpp"

namespace pasched::sim {

void Engine::grow_slab() {
  // Sanctioned amortized growth: every buffer the hot path pushes into is
  // (re)sized here, inside a cold allocation region, so the per-event code
  // never reallocates. free_/heap_ capacities track the slot count
  // — one heap entry and one free-list entry per slot is the worst case.
  PASCHED_ALLOC_COLD_REGION();
  const std::size_t old = slots_.size();
  const std::size_t add = old == 0 ? 64 : old;  // one chunk, then doubling
  slots_.resize(old + add);
  free_.reserve(slots_.size());
  heap_.reserve(slots_.size());
  // New indices go on the free list high-to-low so back() hands out the
  // lowest index first — the same slot-assignment order the old
  // emplace_back-per-event scheme produced.
  for (std::size_t i = slots_.size(); i-- > old;)
    free_.push_back(static_cast<std::uint32_t>(i));
}

void Engine::grow_fire_log() {
  PASCHED_ALLOC_COLD_REGION();
  fire_log_.reserve(fire_log_.capacity() == 0 ? 1024
                                              : fire_log_.capacity() * 2);
}

PASCHED_HOT void Engine::heap_place(std::size_t pos) noexcept {
  slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
}

// Both sifts move a hole rather than swapping: each displaced entry is
// written once and re-anchored once, and `item` is stored where the hole
// stops.
PASCHED_HOT void Engine::sift_up(std::size_t pos,
                                 const HeapItem& item) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kHeapArity;
    if (!heap_before(item, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_place(pos);
    pos = parent;
  }
  heap_[pos] = item;
  heap_place(pos);
}

PASCHED_HOT void Engine::sift_down(std::size_t pos,
                                   const HeapItem& item) noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kHeapArity * pos + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kHeapArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c)
      if (heap_before(heap_[c], heap_[best])) best = c;
    if (!heap_before(heap_[best], item)) break;
    heap_[pos] = heap_[best];
    heap_place(pos);
    pos = best;
  }
  heap_[pos] = item;
  heap_place(pos);
}

PASCHED_HOT void Engine::heap_push(const HeapItem& item) noexcept {
  heap_.push_back(item);  // never reallocates: capacity from grow_slab()
  sift_up(heap_.size() - 1, item);
}

PASCHED_HOT void Engine::heap_remove_at(std::size_t pos) noexcept {
  PASCHED_ASSERT(pos < heap_.size());
  slots_[heap_[pos].slot].heap_pos = kNoHeapPos;
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  // The last entry refills the hole; it can violate the heap property in
  // at most one direction.
  if (pos > 0 && heap_before(last, heap_[(pos - 1) / kHeapArity]))
    sift_up(pos, last);
  else
    sift_down(pos, last);
}

PASCHED_HOT std::uint32_t Engine::acquire_slot() {
  if (free_.empty()) grow_slab();
  const std::uint32_t idx = free_.back();
  free_.pop_back();
  PASCHED_CHECK_MSG(!slots_[idx].armed && !slots_[idx].fn,
                    "free-list slot still armed or holding a callback");
  return idx;
}

PASCHED_HOT void Engine::release_slot(std::uint32_t idx) noexcept {
  Slot& s = slots_[idx];
  s.fn.reset();
  ++s.gen;  // invalidate any outstanding EventIds
  s.armed = false;
  s.delivery = false;
  s.heap_pos = kNoHeapPos;
  free_.push_back(idx);  // never reallocates: capacity from grow_slab()
}

PASCHED_HOT EventId Engine::schedule_at(Time t, Callback fn) {
  PASCHED_ALLOC_HOT_SCOPE("Engine::schedule_at");
  PASCHED_EXPECTS_MSG(t >= now_, "cannot schedule an event in the past");
  const std::uint32_t idx = acquire_slot();
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  s.armed = true;
  heap_push(HeapItem{t, seq_++, idx});
  ++live_;
  return EventId{idx, s.gen};
}

PASCHED_HOT EventId Engine::schedule_delivery(Time t, Callback fn) {
  PASCHED_ALLOC_HOT_SCOPE("Engine::schedule_delivery");
  const EventId id = schedule_at(t, std::move(fn));
  slots_[id.slot].delivery = true;
  ++deliveries_pending_;
  return id;
}

Time Engine::next_delivery_time(Time limit) const {
  Time best = limit;
  if (deliveries_pending_ != 0) min_delivery_below(0, best);
  return best;
}

void Engine::min_delivery_below(std::size_t pos, Time& best) const {
  // Heap order: every entry below `pos` is due no earlier than it, so a
  // subtree stops at its first delivery or at the best time found so far.
  if (pos >= heap_.size() || heap_[pos].t >= best) return;
  if (slots_[heap_[pos].slot].delivery) {
    best = heap_[pos].t;
    return;
  }
  const std::size_t first = kHeapArity * pos + 1;
  for (std::size_t c = first; c < first + kHeapArity; ++c)
    min_delivery_below(c, best);
}

PASCHED_HOT void Engine::cancel(EventId id) {
  PASCHED_ALLOC_HOT_SCOPE("Engine::cancel");
  if (!id.valid() || id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  if (s.gen != id.gen || !s.armed) return;  // already fired / cancelled
  // Lazy at the slot layer (the generation bump already invalidates the
  // EventId), eager at the heap layer: the position backlink makes the
  // removal a targeted O(log n) fix-up, so no stale entries accumulate and
  // no compaction pass exists.
  heap_remove_at(s.heap_pos);
  --live_;
  if (s.delivery) --deliveries_pending_;
  release_slot(id.slot);
}

bool Engine::pending(EventId id) const noexcept {
  if (!id.valid() || id.slot >= slots_.size()) return false;
  const Slot& s = slots_[id.slot];
  return s.gen == id.gen && s.armed;
}

PASCHED_HOT void Engine::fire_item(const HeapItem& item) {
  Slot& s = slots_[item.slot];
  PASCHED_CHECK_MSG(static_cast<bool>(s.fn),
                    "armed slot has no callback to fire");
  last_fired_t_ = item.t;
  last_fired_seq_ = item.seq;
  advance_clock(item.t);
  if (fire_log_armed_) {
    if (fire_log_.size() == fire_log_.capacity()) grow_fire_log();
    fire_log_.push_back(item.t);
  }
  // Move the callback out before releasing so the handler can freely
  // schedule/cancel (including reusing this very slot).
  Callback fn = std::move(s.fn);
  if (s.delivery) --deliveries_pending_;
  --live_;
  release_slot(item.slot);
  ++processed_;
  {
    // Handler code is the workload's, not the engine's: its allocations
    // are charged to the dispatch row, never against an engine claim.
    PASCHED_ALLOC_DISPATCH_SCOPE("Engine.callback");
    fn();
  }
}

PASCHED_HOT bool Engine::fire_next() {
  if (heap_.empty()) return false;
  const HeapItem top = heap_.front();
  // Indexed removal is eager, so the top entry is always live.
  PASCHED_CHECK_MSG(slots_[top.slot].armed && slots_[top.slot].heap_pos == 0,
                    "heap top is not an armed slot anchored at position 0");
  PASCHED_ASSERT(top.t >= now_);
  heap_remove_at(0);
  // Causality: pops must come off the heap in strictly increasing (t, seq)
  // order — a regression here reorders same-timestamp events and silently
  // breaks the engine's FIFO tie-break guarantee.
  PASCHED_CHECK_MSG(
      top.t > last_fired_t_ ||
          (top.t == last_fired_t_ && top.seq > last_fired_seq_),
      "event fired out of (t, seq) order");
  fire_item(top);
  return true;
}

void Engine::run() {
  PASCHED_ALLOC_HOT_SCOPE("Engine::run");
  stopped_ = false;
  while (!stopped_ && fire_next()) {
  }
}

bool Engine::run_until(Time deadline) {
  PASCHED_ALLOC_HOT_SCOPE("Engine::run_until");
  PASCHED_EXPECTS(deadline >= now_);
  stopped_ = false;
  while (!stopped_) {
    if (heap_.empty() || heap_.front().t > deadline) {
      advance_clock(deadline);
      return true;
    }
    fire_next();
  }
  return false;
}

PASCHED_HOT void Engine::run_before(Time end) {
  PASCHED_ALLOC_HOT_SCOPE("Engine::run_before");
  PASCHED_EXPECTS(end >= now_);
  while (!heap_.empty() && heap_.front().t < end) fire_next();
  advance_clock(end);
}

std::uint64_t Engine::fires_at_or_after(Time t) const noexcept {
  const auto it = std::lower_bound(fire_log_.begin(), fire_log_.end(), t);
  return static_cast<std::uint64_t>(fire_log_.end() - it);
}

void Engine::drain() {
  heap_.clear();
  deliveries_pending_ = 0;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].armed) {
      --live_;
      release_slot(i);
    }
  }
  PASCHED_ASSERT(live_ == 0);
}

PASCHED_HOT Time Engine::next_event_time() const noexcept {
  return heap_.empty() ? Time::max() : heap_.front().t;
}

void Engine::check_consistent() const {
  // Every armed slot holds a callback; live_ counts exactly the armed slots.
  // check_consistent() is only valid between events.
  std::size_t armed = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.armed) {
      ++armed;
      PASCHED_CHECK_ALWAYS_MSG(static_cast<bool>(s.fn),
                               "armed slot " + std::to_string(i) +
                                   " has no callback");
    }
  }
  PASCHED_CHECK_ALWAYS_MSG(armed == live_,
                           "live_ disagrees with armed slot count");

  // The indexed 4-ary heap holds exactly one entry per armed slot,
  // position backlinks agree, the (t, seq) heap property holds, and —
  // since cancel() removes eagerly — no stale entries exist at all:
  // queue_footprint() == events_pending() between events.
  PASCHED_CHECK_ALWAYS_MSG(heap_.size() == live_,
                           "queue footprint disagrees with pending events "
                           "(stale entries survived indexed removal)");
  std::vector<std::uint32_t> refs(slots_.size(), 0);
  for (std::size_t p = 0; p < heap_.size(); ++p) {
    const HeapItem& h = heap_[p];
    PASCHED_CHECK_ALWAYS_MSG(h.slot < slots_.size(),
                             "heap entry references an out-of-range slot");
    const Slot& s = slots_[h.slot];
    PASCHED_CHECK_ALWAYS_MSG(s.armed, "stale heap entry at position " +
                                          std::to_string(p));
    PASCHED_CHECK_ALWAYS_MSG(
        s.heap_pos == p,
        "slot " + std::to_string(h.slot) + " heap_pos backlink says " +
            std::to_string(s.heap_pos) + ", entry is at " +
            std::to_string(p));
    if (p > 0)
      PASCHED_CHECK_ALWAYS_MSG(
          !heap_before(heap_[p], heap_[(p - 1) / kHeapArity]),
          "heap property violated at position " + std::to_string(p));
    ++refs[h.slot];
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::uint32_t expected = slots_[i].armed ? 1 : 0;
    PASCHED_CHECK_ALWAYS_MSG(
        refs[i] == expected,
        "slot " + std::to_string(i) + " has " + std::to_string(refs[i]) +
            " live heap entries, expected " + std::to_string(expected));
    if (!slots_[i].armed)
      PASCHED_CHECK_ALWAYS_MSG(slots_[i].heap_pos == kNoHeapPos,
                               "disarmed slot " + std::to_string(i) +
                                   " still carries a heap position");
  }

  // The delivery count matches the flagged armed slots, and the pruned
  // walk finds the earliest of them.
  std::size_t armed_deliveries = 0;
  Time earliest = Time::max();
  for (const HeapItem& h : heap_) {
    if (!slots_[h.slot].delivery) continue;
    ++armed_deliveries;
    earliest = std::min(earliest, h.t);
  }
  PASCHED_CHECK_ALWAYS_MSG(armed_deliveries == deliveries_pending_,
                           "delivery count disagrees with the flagged slots");
  PASCHED_CHECK_ALWAYS_MSG(next_delivery_time() == earliest,
                           "next_delivery_time missed the earliest delivery");

  // Free-list entries are disarmed, in range, and unique.
  std::vector<bool> freed(slots_.size(), false);
  for (const std::uint32_t idx : free_) {
    PASCHED_CHECK_ALWAYS_MSG(idx < slots_.size(),
                             "free list references an out-of-range slot");
    PASCHED_CHECK_ALWAYS_MSG(!slots_[idx].armed, "free list holds an armed slot");
    PASCHED_CHECK_ALWAYS_MSG(!freed[idx], "slot appears twice on the free list");
    freed[idx] = true;
  }
}

}  // namespace pasched::sim
