#include "race/monitor.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace pasched::race {

namespace {

void join_into(std::vector<std::uint64_t>& dst,
               const std::vector<std::uint64_t>& src) {
  for (std::size_t i = 0; i < dst.size(); ++i)
    dst[i] = std::max(dst[i], src[i]);
}

}  // namespace

Monitor::Monitor(int partitions) : n_(partitions) {
  PASCHED_EXPECTS(partitions >= 1);
  vc_.assign(static_cast<std::size_t>(n_),
             std::vector<std::uint64_t>(static_cast<std::size_t>(n_), 0));
  pub_.assign(static_cast<std::size_t>(n_), {});
}

void Monitor::on_post(int src_shard, int dst_shard, sim::Time t,
                      sim::Time sent_at, std::uint64_t src_seq) {
  static_cast<void>(t);
  static_cast<void>(sent_at);
  static_cast<void>(dst_shard);
  auto& row = vc_[static_cast<std::size_t>(src_shard)];
  {
    const std::scoped_lock lk(mu_);
    msgs_.emplace(std::make_pair(src_shard, src_seq), row);
    ++stats_.posts;
  }
  // Release: everything the source does after the post is a new epoch, so a
  // later foreign access can be told apart from state the message carried.
  ++row[static_cast<std::size_t>(src_shard)];
}

void Monitor::on_admit(int dst_shard, int src_shard, std::uint64_t src_seq,
                       sim::Time t, sim::Time dst_now) {
  std::vector<std::uint64_t> snap;
  {
    const std::scoped_lock lk(mu_);
    ++stats_.admits;
    const auto it = msgs_.find(std::make_pair(src_shard, src_seq));
    if (it != msgs_.end()) {
      snap = std::move(it->second);
      msgs_.erase(it);
    }
  }
  if (!snap.empty())  // acquire: the post's past is now the destination's
    join_into(vc_[static_cast<std::size_t>(dst_shard)], snap);
  if (t < dst_now) {
    analysis::Diagnostic d;
    d.rule = "PSL203";
    d.severity = analysis::Severity::Error;
    std::ostringstream subj;
    subj << "shard " << dst_shard;
    d.subject = subj.str();
    std::ostringstream msg;
    msg << "cross-shard delivery from shard " << src_shard << " (seq "
        << src_seq << ") stamped t=" << t.since_epoch().count()
        << "ns landed with the destination clock already at "
        << dst_now.since_epoch().count() << "ns";
    d.message = msg.str();
    d.fix_hint =
        "post at >= now + guaranteed lookahead; check the fabric's "
        "min-latency derivation";
    record(std::move(d));
  }
}

void Monitor::on_window_begin(int shard, sim::Time window_end) {
  static_cast<void>(window_end);
  // New epoch for this shard's window.
  ++vc_[static_cast<std::size_t>(shard)][static_cast<std::size_t>(shard)];
  const std::scoped_lock lk(mu_);
  ++stats_.windows;
}

void Monitor::on_horizon_publish(int shard, sim::Time horizon) {
  static_cast<void>(horizon);
  auto& row = vc_[static_cast<std::size_t>(shard)];
  {
    const std::scoped_lock lk(mu_);
    pub_[static_cast<std::size_t>(shard)] = row;
    ++stats_.horizon_publishes;
  }
  // Release: like a post, work after the publish is a new epoch so a waiter
  // only absorbs what the horizon actually covered.
  ++row[static_cast<std::size_t>(shard)];
}

void Monitor::on_horizon_wait(int dst_shard, int src_shard) {
  std::vector<std::uint64_t> snap;
  {
    const std::scoped_lock lk(mu_);
    snap = pub_[static_cast<std::size_t>(src_shard)];
    ++stats_.horizon_waits;
  }
  // Acquire: the source's published past is now the waiter's. pub_ holds the
  // *latest* snapshot, which is exactly right — the waiter's spin reads the
  // current horizon value, so it synchronized with the newest store.
  if (!snap.empty())
    join_into(vc_[static_cast<std::size_t>(dst_shard)], snap);
}

void Monitor::on_plan(sim::Time window_end, bool final_window) {
  static_cast<void>(window_end);
  static_cast<void>(final_window);
  // Every worker is parked at the barrier: the plan point totally orders all
  // shards, so every clock absorbs every other.
  std::vector<std::uint64_t> all(static_cast<std::size_t>(n_), 0);
  for (const auto& row : vc_) join_into(all, row);
  for (auto& row : vc_) row = all;
  const std::scoped_lock lk(mu_);
  ++stats_.plans;
}

void Monitor::report(const Violation& v) {
  // The annotation layer already filtered the benign cases (free context,
  // unbound object, owner access) — everything arriving here is at minimum a
  // breach of the ownership discipline.
  {
    analysis::Diagnostic d;
    d.rule = "PSL201";
    d.severity = analysis::Severity::Error;
    std::ostringstream subj;
    subj << v.label << "[" << v.id << "]";
    d.subject = subj.str();
    std::ostringstream msg;
    msg << "mutated via '" << v.what << "' by domain " << v.accessor
        << " but owned by domain " << v.owner;
    if (v.last_domain != kUnbound)
      msg << "; last accessed by domain " << v.last_domain << " at clock "
          << v.last_clock;
    d.message = msg.str();
    d.fix_hint =
        "route the effect through sim::ShardedEngine::post so it executes on "
        "the owning shard";
    record(std::move(d));
  }
  // Race classification: the breach is also a data race unless the
  // accessor's clock already covers the object's last-access epoch (i.e.
  // some post/barrier chain ordered the two accesses).
  if (v.last_domain < 0 || v.last_domain >= n_ || v.accessor < 0 ||
      v.accessor >= n_ || v.last_domain == v.accessor)
    return;
  const auto& row = vc_[static_cast<std::size_t>(v.accessor)];
  if (row[static_cast<std::size_t>(v.last_domain)] >= v.last_clock) return;
  analysis::Diagnostic d;
  d.rule = "PSL202";
  d.severity = analysis::Severity::Error;
  std::ostringstream subj;
  subj << v.label << "[" << v.id << "]";
  d.subject = subj.str();
  std::ostringstream msg;
  msg << "access '" << v.what << "' by domain " << v.accessor
      << " is unordered with the last access by domain " << v.last_domain
      << " at clock " << v.last_clock << " (accessor has only seen clock "
      << row[static_cast<std::size_t>(v.last_domain)]
      << " of that domain) — a true cross-shard race";
  d.message = msg.str();
  d.fix_hint =
      "order the accesses with a sim::ShardedEngine::post or move the "
      "state to the accessing shard";
  record(std::move(d));
}

std::uint64_t Monitor::clock_of(Domain d) noexcept {
  if (d < 0 || d >= n_) return 0;
  return vc_[static_cast<std::size_t>(d)][static_cast<std::size_t>(d)];
}

Monitor::Stats Monitor::stats() const {
  const std::scoped_lock lk(mu_);
  return stats_;
}

std::vector<analysis::Diagnostic> Monitor::findings() const {
  const std::scoped_lock lk(mu_);
  return findings_;
}

void Monitor::add_finding(analysis::Diagnostic d) { record(std::move(d)); }

void Monitor::record(analysis::Diagnostic d) {
  const std::scoped_lock lk(mu_);
  ++stats_.violations;
  findings_.push_back(std::move(d));
}

}  // namespace pasched::race
