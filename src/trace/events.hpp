// Rich scheduling/messaging event records — the raw material of the offline
// analyzers in src/analysis/. Where trace::Interval answers "who occupied
// this CPU", an Event stream answers "why": it keeps the dispatch priority,
// the node's ready-queue depth, and the message identity at every point
// where causality can pass between threads (dispatch, preempt, ready, block,
// send, receive-wait, receive). Events are plain data so tests can hand-build
// pathological traces without running a simulation.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "kern/types.hpp"
#include "race/domain.hpp"
#include "sim/time.hpp"

namespace pasched::trace {

enum class EventKind : std::uint8_t {
  Dispatch,     // thread began running on (node, cpu)
  Preempt,      // thread was forced off (node, cpu); it re-entered Ready
  Ready,        // thread became runnable (wake, preemption, priority flip)
  Block,        // thread gave up the CPU voluntarily
  Exit,         // thread finished
  Idle,         // (node, cpu) went idle
  MsgSend,      // task injected a message into the fabric
  MsgRecvWait,  // task started waiting (spin or block) for a message
  MsgRecv,      // the awaited message was consumed
};

[[nodiscard]] const char* to_string(EventKind k) noexcept;

/// One analyzer-visible event. Scheduling events carry the thread identity
/// and its effective dispatch priority at event time plus the node-wide
/// ready-queue depth; message events additionally carry rank/message ids.
/// `thread` is an optional back-pointer for nicer reports (threads outlive
/// the simulation); hand-built traces leave it null.
struct Event {
  sim::Time t;
  EventKind kind = EventKind::Dispatch;
  kern::NodeId node = -1;
  kern::CpuId cpu = kern::kNoCpu;
  int tid = 0;
  kern::ThreadClass cls = kern::ThreadClass::Other;
  kern::Priority priority = 0;
  /// Number of Ready threads on the node at event time (after the event's
  /// own queue effect) — the "queue depth" behind scheduling decisions.
  int ready_depth = 0;
  /// Message fields (MsgSend / MsgRecvWait / MsgRecv only).
  int src_rank = -1;
  int dst_rank = -1;
  std::uint64_t msg_id = 0;
  const kern::Thread* thread = nullptr;
};

/// Display name for reports: the live thread's name when available,
/// otherwise a synthesized "node<N>/tid<T>".
[[nodiscard]] std::string display_name(const Event& e);

/// Append-only event store. Recording can be gated so long runs only pay for
/// the windows under investigation (the paper enabled the AIX trace facility
/// only around the Allreduce loops).
///
/// Storage is sharded per node so partitioned runs can record from every
/// shard concurrently without locks: record() appends to the bucket of the
/// event's node (call bind_node() up front — bucket growth itself is
/// single-threaded). events() merges the buckets into one canonical stream
/// ordered by (t, node, per-node sequence); the merge order is a pure
/// function of the per-node streams, so sequential and parallel runs of the
/// same scenario produce byte-identical logs.
// srclint-ok(PSL402): uses the container-form ownership discipline — every
// bucket append passes PASCHED_ASSERT_DOMAIN (race/domain.hpp), which
// exists precisely for per-node buffers with no Owned member per element.
class EventLog {
 public:
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void enable() noexcept { enabled_ = true; }
  void disable() noexcept { enabled_ = false; }

  /// Presizes `node`'s bucket and names the shard domain that owns it (the
  /// node's EventContext shard). Must be called for every node before
  /// concurrent recording from multiple shards; Tracer::attach and
  /// Job::set_event_log do this automatically.
  void bind_node(int node, race::Domain owner) {
    const std::size_t b = static_cast<std::size_t>(node) + 1;
    if (b >= buckets_.size()) buckets_.resize(b + 1);
    if (b >= owners_.size()) owners_.resize(b + 1, race::kUnbound);
    owners_[b] = owner;
  }

  void record(const Event& e) {
    if (!enabled_) return;
    // The lock-free sharding contract: a node's bucket is written only from
    // the shard that owns the node. Nodeless events go to bucket 0, which
    // only the free context touches.
    const std::size_t b =
        e.node >= 0 ? static_cast<std::size_t>(e.node) + 1 : 0;
    if (b > 0 && b < owners_.size())
      PASCHED_ASSERT_DOMAIN(owners_[b], "trace.EventLog.bucket", e.node,
                            "record");
    if (b >= buckets_.size()) buckets_.resize(b + 1);  // single-thread path
    buckets_[b].push_back(e);
    dirty_.store(true, std::memory_order_release);
  }

  /// The merged canonical stream. Not safe to call while shards record.
  [[nodiscard]] const std::vector<Event>& events() const;
  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const auto& b : buckets_) n += b.size();
    return n;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  void clear() {
    buckets_.clear();
    merged_.clear();
    dirty_.store(false, std::memory_order_release);
  }

  /// Events with t in [t0, t1), preserving order — analyzers that build
  /// per-event vector clocks should run on a bounded slice, not a full run.
  [[nodiscard]] std::vector<Event> slice(sim::Time t0, sim::Time t1) const;

 private:
  std::vector<std::vector<Event>> buckets_;  // [node + 1]; 0 = nodeless
  std::vector<race::Domain> owners_;         // [node + 1]; see bind_node
  // srclint-ok(PSL402): post-run lazily-rebuilt cache behind the atomic
  // dirty_ flag; events() documents it is unsafe while shards record.
  mutable std::vector<Event> merged_;
  mutable std::atomic<bool> dirty_{false};
  bool enabled_ = true;
};

}  // namespace pasched::trace
