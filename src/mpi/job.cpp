#include "mpi/job.hpp"

#include <algorithm>
#include <memory>

#include "util/assert.hpp"

namespace pasched::mpi {

using sim::Duration;
using sim::Time;

Job::Job(cluster::Cluster& cluster, JobConfig cfg,
         const WorkloadFactory& factory)
    : cluster_(cluster), cfg_(cfg) {
  PASCHED_EXPECTS(cfg_.ntasks >= 1);
  PASCHED_EXPECTS(cfg_.tasks_per_node >= 1);
  const int nodes_needed =
      (cfg_.ntasks + cfg_.tasks_per_node - 1) / cfg_.tasks_per_node;
  PASCHED_EXPECTS_MSG(
      cfg_.first_node + nodes_needed <= cluster_.size(),
      "job does not fit on the cluster");
  PASCHED_EXPECTS_MSG(
      cfg_.tasks_per_node <=
          cluster_.node(cfg_.first_node).kernel().ncpus(),
      "tasks_per_node exceeds CPUs per node");
  combine_owned_.bind(kCombineShard, "mpi.Job.hw", 0);
  sim::Rng job_rng(cfg_.seed);
  spans_.resize(static_cast<std::size_t>(cfg_.ntasks));
  node_of_.reserve(static_cast<std::size_t>(cfg_.ntasks));
  for (int rank = 0; rank < cfg_.ntasks; ++rank) {
    const int node_id = cfg_.first_node + rank / cfg_.tasks_per_node;
    const kern::CpuId cpu = rank % cfg_.tasks_per_node;
    cluster::Node& node = cluster_.node(node_id);
    PASCHED_EXPECTS_MSG(cpu < node.kernel().ncpus(),
                        "tasks_per_node exceeds CPUs per node");
    tasks_.push_back(std::make_unique<Task>(
        *this, rank, cfg_.ntasks, node, cpu, factory(rank, cfg_.ntasks),
        job_rng.fork(static_cast<std::uint64_t>(rank))));
    node_of_.push_back(node_id);
    if (cfg_.mpi.progress_engine) {
      aux_.push_back(std::make_unique<AuxThread>(
          node.kernel(), rank, cpu, cfg_.mpi,
          job_rng.fork(1'000'000 + static_cast<std::uint64_t>(rank))));
    }
  }
}

Job::~Job() = default;

void Job::launch() {
  prepare_launch();
  for (int s = 0; s < cluster_.sharded().partitions(); ++s) launch_shard(s);
}

void Job::prepare_launch() {
  launch_time_ = cluster_.engine().now();
  if (hook_ == nullptr) return;
  // Rank order, the order in which registration would first reach each
  // node; block placement puts a node's tasks at consecutive ranks.
  kern::NodeId prepared = -1;
  for (const kern::NodeId n : node_of_) {
    if (n == prepared) continue;
    prepared = n;
    hook_->prepare_node(n);
  }
}

void Job::launch_shard(int shard) {
  sim::ShardedEngine& r = cluster_.sharded();
  const auto here = [this, &r, shard](std::size_t rank) {
    return r.shard_of_node(node_of_[rank]) == shard;
  };
  if (hook_ != nullptr) {
    kern::NodeId started = -1;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      if (!here(i) || node_of_[i] == started) continue;
      started = node_of_[i];
      hook_->start_node(started);
    }
    // MPI_Init registration: each task's PID reaches the node co-scheduler
    // through the pmd control pipe.
    for (std::size_t i = 0; i < tasks_.size(); ++i)
      if (here(i)) hook_->register_task(node_of_[i], tasks_[i]->thread());
  }
  for (std::size_t i = 0; i < tasks_.size(); ++i)
    if (here(i)) tasks_[i]->launch();
  // aux_[i] serves tasks_[i] (both are built rank by rank).
  for (std::size_t i = 0; i < aux_.size(); ++i)
    if (here(i)) aux_[i]->start();
}

void Job::inject(Task& from, int dst_rank, std::uint64_t tag,
                 std::size_t bytes) {
  PASCHED_EXPECTS(dst_rank >= 0 && dst_rank < ntasks());
  const auto d = static_cast<std::size_t>(dst_rank);
  Task* dst = tasks_[d].get();
  const int src_rank = from.rank();
  if (elog_ != nullptr) {
    trace::Event e;
    e.t = from.node().kernel().engine().now();  // the sender's shard clock
    e.kind = trace::EventKind::MsgSend;
    e.node = from.node().id();
    e.cpu = from.thread().running_on();
    e.tid = from.thread().tid();
    e.cls = kern::ThreadClass::AppTask;
    e.priority = from.thread().effective_priority();
    e.src_rank = src_rank;
    e.dst_rank = dst_rank;
    e.msg_id = Task::key_of(src_rank, tag);
    e.thread = &from.thread();
    elog_->record(e);
  }
  cluster_.fabric().send(from.node().id(), node_of_[d], bytes,
                         [dst, src_rank, tag] { dst->deposit(src_rank, tag); });
}

void Job::submit_io(Task& t, std::size_t bytes) {
  daemons::IoService* local = t.node().io_service();
  PASCHED_EXPECTS_MSG(local != nullptr,
                      "workload issues I/O but the node has no I/O daemon");
  // GPFS-style request: local daemon work plus data shipped to peer nodes'
  // daemons; the request completes when every shard has been serviced.
  const int shards =
      std::min(cfg_.io_remote_shards, cluster_.size() - 1);
  Task* tp = &t;
  // The countdown only ever runs on the task's home shard: the local
  // daemon completes there, and remote shards acknowledge back over the
  // fabric (like a GPFS server reply) rather than completing in place —
  // so no atomics are needed and the wakeup lands on the right engine.
  auto wait = std::make_shared<int>(1 + std::max(0, shards));
  auto done_one = [tp, wait] {
    if (--*wait == 0) tp->io_complete();
  };
  const std::size_t share =
      bytes / static_cast<std::size_t>(1 + std::max(0, shards));
  local->submit(std::max<std::size_t>(share, 1), done_one);
  const int home = t.node().id();
  for (int s = 0; s < shards; ++s) {
    // Deterministic shard placement spread over the cluster.
    const int peer =
        (home + 1 + (t.rank() + s) % (cluster_.size() - 1)) % cluster_.size();
    if (cluster_.node(peer).io_service() == nullptr) {
      done_one();
      continue;
    }
    // Ship the data over the fabric, let the peer daemon service it, then
    // ack back to the home node.
    const std::size_t sbytes = std::max<std::size_t>(share, 1);
    Job* self = this;
    cluster_.fabric().send(home, peer, sbytes, [self, tp, wait, sbytes, peer] {
      daemons::IoService* rio = self->cluster_.node(peer).io_service();
      const int h = tp->node().id();
      rio->submit(sbytes, [self, tp, wait, peer, h] {
        self->cluster_.fabric().send(peer, h, 1, [tp, wait] {
          if (--*wait == 0) tp->io_complete();
        });
      });
    });
  }
}

void Job::hw_contribute(Task& t, std::uint64_t seq, std::size_t bytes) {
  // Contribution travels to the switch's combine unit (one wire hop). The
  // combine unit lives on shard 0, so the count is only ever mutated there;
  // the wire hop is at least the fabric's guaranteed lookahead, which makes
  // this a legal cross-shard edge from every other shard.
  sim::ShardedEngine& r = cluster_.sharded();
  const sim::Duration wire =
      cluster_.fabric().latency_for(0, cluster_.size() > 1 ? 1 : 0, bytes);
  const int src = r.shard_of_node(t.node().id());
  Job* self = this;
  r.post(src, kCombineShard, r.engine_of(src).now() + wire,
         [self, seq, bytes] { self->hw_arrive(seq, bytes); });
}

void Job::hw_arrive(std::uint64_t seq, std::size_t bytes) {
  PASCHED_ASSERT_OWNED(combine_owned_, "hw_arrive");
  // Shard 0: the unit fires when the last task's contribution arrives and
  // broadcasts the result to every task via its adapter (one more wire hop
  // plus the combine latency) — the same end-to-end time as the classic
  // single-queue model: t_last + 2 * wire + hw_collective_latency.
  const int got = ++hw_pending_[seq];
  if (got < ntasks()) return;
  hw_pending_.erase(seq);
  sim::ShardedEngine& r = cluster_.sharded();
  const sim::Duration wire =
      cluster_.fabric().latency_for(0, cluster_.size() > 1 ? 1 : 0, bytes);
  const sim::Time at = r.engine_of(kCombineShard).now() + wire +
                       cfg_.mpi.hw_collective_latency;
  for (std::size_t rank = 0; rank < tasks_.size(); ++rank) {
    Task* tp = tasks_[rank].get();
    r.post(kCombineShard, r.shard_of_node(node_of_[rank]), at,
           [tp, seq] { tp->deposit(kHwSwitchRank, seq); });
  }
}

void Job::on_span(Task& t, std::uint32_t channel, std::uint64_t /*seq*/,
                  Time begin, Time end) {
  PASCHED_ASSERT_OWNED(t.owned_, "on_span");
  PASCHED_EXPECTS(channel < kMaxChannels);
  // Recorded per rank (shards never contend); folded into ChannelStats
  // lazily in canonical (rank, span-sequence) order.
  const std::int64_t ns = (end - begin).count();
  PASCHED_EXPECTS(ns >= 0);
  spans_[static_cast<std::size_t>(t.rank())].push_back(
      (static_cast<std::uint64_t>(ns) << kChannelBits) | channel);
  if (t.rank() == cfg_.record_rank) recorded_begin_.push_back(begin);
  channels_dirty_.store(true, std::memory_order_release);
}

void Job::rebuild_channels() const {
  if (!channels_dirty_.load(std::memory_order_acquire)) return;
  for (auto& ch : channels_) ch = ChannelStats{};
  for (std::size_t rank = 0; rank < spans_.size(); ++rank) {
    const bool recorded = static_cast<int>(rank) == cfg_.record_rank;
    const std::vector<std::uint64_t>& row = spans_[rank];
    for (std::size_t i = 0; i < row.size(); ++i) {
      ChannelStats& ch = channels_[row[i] & kChannelMask];
      // Bit-identical to the (end - begin).to_us() of the span.
      const double us =
          Duration::ns(static_cast<std::int64_t>(row[i] >> kChannelBits))
              .to_us();
      ch.all_us.add(us);
      if (recorded) {
        ch.recorded_us.push_back(us);
        ch.recorded_begin.push_back(recorded_begin_[i]);
      }
    }
  }
  channels_dirty_.store(false, std::memory_order_release);
}

void Job::task_finished(Task& t, Time now) {
  t.finish_time_ = now;
  if (1 + finished_.fetch_add(1, std::memory_order_acq_rel) == ntasks()) {
    // The epilogue touches other shards' engines (aux-thread timers, the
    // co-scheduler hook, the stop flag), so defer it to the sharded
    // engine's next synchronization point (a one-shard run does it inline).
    Job* self = this;
    cluster_.sharded().request_wrapup([self] { self->wrapup(); });
  }
}

void Job::wrapup() {
  completion_time_ = Time{};
  for (const auto& t : tasks_)
    completion_time_ = std::max(completion_time_, t->finish_time_);
  for (auto& a : aux_) a->cancel();
  if (hook_ != nullptr) hook_->job_ended();
  if (cfg_.stop_engine_on_complete) cluster_.sharded().stop_all();
}

void Job::hook_detach(Task& t) {
  if (hook_ != nullptr) hook_->detach_task(t.node().id(), t.thread());
}

void Job::hook_attach(Task& t) {
  if (hook_ != nullptr) hook_->attach_task(t.node().id(), t.thread());
}

const ChannelStats& Job::channel(std::uint32_t ch) const {
  PASCHED_EXPECTS(ch < kMaxChannels);
  rebuild_channels();
  return channels_[ch];
}

Task& Job::task(int rank) {
  PASCHED_EXPECTS(rank >= 0 && rank < ntasks());
  return *tasks_[static_cast<std::size_t>(rank)];
}

Duration Job::aux_cpu_total() const {
  Duration total = Duration::zero();
  for (const auto& a : aux_) total += a->total_cpu();
  return total;
}

}  // namespace pasched::mpi
