// The dynamic half of pasched-race: a FastTrack-style vector-clock checker
// hung on the sharded engine's cross-shard seams (posts, inbox
// drains, window begins, barrier plans) plus the ViolationSink that turns
// ownership breaches from the annotation layer (race/domain.hpp) into
// PSL2xx diagnostics.
//
// Clock model: one vector clock per shard domain. A domain's own component
// ticks at every window begin and every cross-shard post (release). A post
// snapshots the source clock into the in-flight message; admission joins
// that snapshot into the destination (acquire). A horizon publish likewise
// snapshots the publisher's clock (release) and a horizon wait joins the
// source's latest published snapshot (acquire) — the neighbor-only edges
// that replaced the per-window global barrier. The barrier completion step
// joins every clock into every other — all workers are parked there, so
// cross-shard happens-before is total at a barrier. An ownership breach is
// then a *race* (PSL202, not just a discipline breach, PSL201) exactly when
// the accessor's clock has not caught up to the object's last-access epoch.
//
// Thread-safety: row d of the clock matrix is only ever touched by the
// worker currently executing domain d (windows of one shard never run
// concurrently with themselves) or by the completion step with every worker
// parked — no atomics needed. The message map, findings, and counters are
// shared and locked.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "race/domain.hpp"
#include "sim/shard.hpp"
#include "sim/time.hpp"

namespace pasched::race {

class Monitor final : public sim::ShardMonitor, public ViolationSink {
 public:
  /// `partitions` = number of shard domains (ShardedEngine::partitions()).
  explicit Monitor(int partitions);

  // sim::ShardMonitor -------------------------------------------------------
  void on_post(int src_shard, int dst_shard, sim::Time t, sim::Time sent_at,
               std::uint64_t src_seq) override;
  void on_admit(int dst_shard, int src_shard, std::uint64_t src_seq,
                sim::Time t, sim::Time dst_now) override;
  void on_window_begin(int shard, sim::Time window_end) override;
  void on_plan(sim::Time window_end, bool final_window) override;
  /// Horizon release: snapshot the shard's clock as the value peers acquire
  /// through the atomic horizon publish, then open a new epoch. The engine
  /// calls this *before* the release store, so any waiter that observed the
  /// horizon finds the snapshot already recorded.
  void on_horizon_publish(int shard, sim::Time horizon) override;
  /// Horizon acquire: join the source's latest published snapshot into the
  /// destination clock. The engine's spin reads the *current* horizon value,
  /// so the latest snapshot is exactly the store it synchronized with.
  void on_horizon_wait(int dst_shard, int src_shard) override;

  // race::ViolationSink -----------------------------------------------------
  void report(const Violation& v) override;
  [[nodiscard]] std::uint64_t clock_of(Domain d) noexcept override;

  // Results -----------------------------------------------------------------
  struct Stats {
    std::uint64_t posts = 0;
    std::uint64_t admits = 0;
    std::uint64_t windows = 0;
    std::uint64_t plans = 0;
    std::uint64_t horizon_publishes = 0;
    std::uint64_t horizon_waits = 0;
    std::uint64_t violations = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::vector<analysis::Diagnostic> findings() const;
  /// Appends an externally produced finding (the fuzz driver's PSL204).
  void add_finding(analysis::Diagnostic d);

 private:
  void record(analysis::Diagnostic d);

  int n_;
  std::vector<std::vector<std::uint64_t>> vc_;  // vc_[domain][component]

  mutable std::mutex mu_;  // guards msgs_, pub_, findings_, stats_
  std::map<std::pair<int, std::uint64_t>, std::vector<std::uint64_t>> msgs_;
  /// pub_[shard]: the clock snapshot released by that shard's most recent
  /// horizon publish (what on_horizon_wait acquires).
  std::vector<std::vector<std::uint64_t>> pub_;
  std::vector<analysis::Diagnostic> findings_;
  Stats stats_;
};

}  // namespace pasched::race
