#include "scale/monitor.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace pasched::scale {

using sim::Duration;
using sim::Time;

namespace {
constexpr std::size_t kMaxDetailedFindings = 16;
}  // namespace

RunMonitor::RunMonitor(LookaheadMatrix matrix, sim::ShardedEngine& engine)
    : matrix_(std::move(matrix)), engine_(engine) {
  PASCHED_EXPECTS_MSG(matrix_.shards == engine.partitions(),
                      "lookahead matrix shard count disagrees with the "
                      "engine partitioning");
  stats_.shards = matrix_.shards;
  stats_.hub_shard = matrix_.hub_shard;
  stats_.per_shard.assign(static_cast<std::size_t>(matrix_.shards), 0);
  // Baseline from the engine's current counters, so a monitor installed on
  // an engine that already ran attributes only what happens from now on.
  last_counts_.resize(static_cast<std::size_t>(matrix_.shards));
  for (int i = 0; i < matrix_.shards; ++i)
    last_counts_[static_cast<std::size_t>(i)] =
        engine_.engine_of(i).events_processed();
  // Install-time certificate consumption check: the planner's installed
  // pair bounds are what post() stamps and the window chain assumes, so an
  // installed bound *larger* than the certified claim means the executor
  // runs on optimism the certificate never granted — unsound before a
  // single event fires. (Smaller is fine: the executor merely forfeits
  // window width; the plant mode's inflated claims land here.)
  for (int a = 0; a < matrix_.shards; ++a) {
    for (int b = 0; b < matrix_.shards; ++b) {
      if (a == b) continue;
      const Duration installed = engine_.pair_lookahead(a, b);
      const Duration claimed = matrix_.at(a, b);
      if (installed <= claimed) continue;
      ++violations_;
      if (findings_.size() >= kMaxDetailedFindings) continue;
      analysis::Diagnostic d;
      d.rule = "PSL303";
      d.severity = analysis::Severity::Error;
      d.subject = "pair(" + std::to_string(a) + "->" + std::to_string(b) +
                  ") install";
      d.message = "executor installed pair lookahead " + installed.str() +
                  " exceeds the certified claim " + claimed.str() +
                  "; the window planner consumes a bound the static "
                  "certificate never granted";
      d.fix_hint =
          "install the engine's PairLookahead from net::pair_lookahead, "
          "the one construction rule the certificate is built from";
      findings_.push_back(std::move(d));
    }
  }
}

void RunMonitor::on_post(int src_shard, int dst_shard, Time t, Time sent_at,
                         std::uint64_t src_seq) {
  const Duration claimed = matrix_.at(src_shard, dst_shard);
  const Duration slack = (t - sent_at) - claimed;
  const std::scoped_lock lk(mu_);
  ++posts_;
  min_slack_ = std::min(min_slack_, slack);
  if (slack < Duration::zero()) {
    ++violations_;
    if (findings_.size() < kMaxDetailedFindings) {
      analysis::Diagnostic d;
      d.rule = "PSL303";
      d.severity = analysis::Severity::Error;
      d.subject = "pair(" + std::to_string(src_shard) + "->" +
                  std::to_string(dst_shard) + ")";
      d.message = "delivery at " + t.str() + " sent at " + sent_at.str() +
                  " (seq " + std::to_string(src_seq) +
                  ") undercuts the claimed pairwise lookahead " +
                  claimed.str() + " by " + (-slack).str() +
                  "; the static certificate is unsound";
      d.fix_hint =
          "lower the matrix claim for this pair to the true minimum link "
          "latency (jitter-adjusted) before any window planner consumes it";
      findings_.push_back(std::move(d));
    }
  }
}

void RunMonitor::on_admit(int, int, std::uint64_t, Time, Time) {}

void RunMonitor::on_window_begin(int, Time) {}

void RunMonitor::on_plan(Time window_end, bool final_window) {
  // Every worker is parked here: the previous window (if any) is fully
  // executed, so the per-shard counter deltas attribute exactly to it.
  if (have_pending_) sample_window();
  pending_end_ = window_end;
  pending_final_ = final_window;
  have_pending_ = true;
}

void RunMonitor::sample_window() {
  WindowSample s;
  s.end = pending_end_;
  s.final_window = pending_final_;
  for (int i = 0; i < stats_.shards; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const std::uint64_t now =
        engine_.engine_of(i).events_processed();
    const std::uint64_t delta = now - last_counts_[idx];
    last_counts_[idx] = now;
    s.total += delta;
    s.max_shard = std::max(s.max_shard, delta);
    if (i == stats_.hub_shard && stats_.shards > 1) s.hub = delta;
    stats_.per_shard[idx] += delta;
  }
  stats_.windows.push_back(s);
}

void RunMonitor::finalize() {
  if (finalized_) return;
  finalized_ = true;
  // The Stop round never reaches on_plan, so the last executed window's
  // deltas are still pending here.
  if (have_pending_) {
    sample_window();
    have_pending_ = false;
  }
}

std::vector<analysis::Diagnostic> RunMonitor::soundness_findings() const {
  const std::scoped_lock lk(mu_);
  std::vector<analysis::Diagnostic> out = findings_;
  if (violations_ > out.size()) {
    analysis::Diagnostic d;
    d.rule = "PSL303";
    d.severity = analysis::Severity::Error;
    d.subject = "matrix";
    d.message = std::to_string(violations_ - out.size()) +
                " further lookahead violations suppressed (total " +
                std::to_string(violations_) + " of " +
                std::to_string(posts_) + " posts)";
    out.push_back(std::move(d));
  }
  return out;
}

std::uint64_t RunMonitor::posts_checked() const {
  const std::scoped_lock lk(mu_);
  return posts_;
}

std::uint64_t RunMonitor::violations() const {
  const std::scoped_lock lk(mu_);
  return violations_;
}

Duration RunMonitor::min_observed_slack() const {
  const std::scoped_lock lk(mu_);
  return min_slack_;
}

}  // namespace pasched::scale
