#include "mpi/task.hpp"

#include <algorithm>

#include "mpi/job.hpp"
#include "util/assert.hpp"

namespace pasched::mpi {

using kern::RunDecision;
using sim::Duration;
using sim::Time;

Task::Task(Job& job, int rank, int size, cluster::Node& node, kern::CpuId cpu,
           std::unique_ptr<Workload> workload, sim::Rng rng)
    : job_(job),
      rank_(rank),
      node_(node),
      workload_(std::move(workload)),
      rng_(rng) {
  PASCHED_EXPECTS(workload_ != nullptr);
  owned_.bind(node.kernel().context().shard, "mpi.Task", rank);
  info_.rank = rank;
  info_.size = size;
  info_.rng = &rng_;
  kern::ThreadSpec ts;
  ts.name = "mpi_task." + std::to_string(rank);
  ts.cls = kern::ThreadClass::AppTask;
  ts.base_priority = kern::kNormalUserBase;
  ts.fixed_priority = false;  // decays into the 90–120 band under load
  ts.home_cpu = cpu;
  ts.stealable = true;
  thread_ = &node.kernel().create_thread(std::move(ts), *this);
}

void Task::launch() { node_.kernel().wake(*thread_, kern::kExternalActor); }

std::vector<Task::Mail>::iterator Task::find_mail(std::uint64_t key) {
  return std::find_if(mailbox_.begin(), mailbox_.end(),
                      [key](const Mail& m) { return m.first == key; });
}

bool Task::try_consume(int src, std::uint64_t tag) {
  const auto it = find_mail(key_of(src, tag));
  if (it == mailbox_.end()) return false;
  if (--it->second == 0) {
    *it = mailbox_.back();  // swap-remove: order is never observed
    mailbox_.pop_back();
  }
  return true;
}

void Task::deposit(int src, std::uint64_t tag) {
  // Deliveries must arrive through the fabric or a ShardedEngine post onto
  // the home shard — a direct call from another shard's event is exactly
  // the corruption the annotation layer exists to catch.
  PASCHED_ASSERT_OWNED(owned_, "deposit");
  const std::uint64_t key = key_of(src, tag);
  const auto it = find_mail(key);
  if (it != mailbox_.end())
    ++it->second;
  else
    mailbox_.emplace_back(key, 1);
  if (wait_key_ != key) return;
  if (thread_->state() == kern::ThreadState::Blocked) {
    // Spin-block receive parked the task: demand-wake it on arrival.
    woken_for_recv_ = true;
    node_.kernel().wake(*thread_, kern::kExternalActor);
  } else {
    node_.kernel().kick(*thread_);
  }
}

void Task::io_complete() {
  PASCHED_ASSERT_OWNED(owned_, "io_complete");
  io_done_ = true;
  node_.kernel().wake(*thread_, kern::kExternalActor);
}

void Task::log_recv_event(bool wait, int src, std::uint64_t key, Time now) {
  trace::EventLog* lg = job_.event_log();
  if (lg == nullptr) return;
  trace::Event e;
  e.t = now;
  e.kind = wait ? trace::EventKind::MsgRecvWait : trace::EventKind::MsgRecv;
  e.node = node_.id();
  e.cpu = thread_->running_on();
  e.tid = thread_->tid();
  e.cls = kern::ThreadClass::AppTask;
  e.priority = thread_->effective_priority();
  e.src_rank = src;
  e.dst_rank = rank_;
  e.msg_id = key;
  e.thread = thread_;
  lg->record(e);
}

RunDecision Task::next(Time now) {
  for (;;) {
    if (head_ == queue_.size()) {
      queue_.clear();
      head_ = 0;
      if (!workload_->refill(info_, queue_)) {
        finished_ = true;
        job_.task_finished(*this, now);
        return RunDecision::exit();
      }
      PASCHED_ASSERT_MSG(!queue_.empty(),
                         "Workload::refill returned true with no ops");
    }
    const MicroOp& op = queue_[head_];
    switch (op.kind) {
      case MicroOp::Kind::Compute:
        ++head_;
        return RunDecision::compute(op.dur);
      case MicroOp::Kind::Send:
        if (!charging_) {
          charging_ = true;
          return RunDecision::compute(job_.mpi_config().o_send);
        }
        charging_ = false;
        job_.inject(*this, op.peer, op.tag, op.bytes);
        ++head_;
        break;
      case MicroOp::Kind::Recv: {
        if (charging_) {  // o_recv paid; message fully received
          charging_ = false;
          spun_ = false;
          ++head_;
          break;
        }
        const MpiConfig& mc = job_.mpi_config();
        if (try_consume(op.peer, op.tag)) {
          log_recv_event(/*wait=*/false, op.peer, key_of(op.peer, op.tag),
                         now);
          wait_key_ = kNoWait;
          charging_ = true;
          sim::Duration cost = mc.o_recv;
          if (woken_for_recv_) {  // arrival interrupt + wakeup path
            woken_for_recv_ = false;
            cost += mc.wakeup_cost;
          }
          return RunDecision::compute(cost);
        }
        if (wait_key_ != key_of(op.peer, op.tag)) {
          // First visit of this unsatisfied receive: record the wait start
          // (spin-block re-entry after the threshold burn is not a new wait).
          log_recv_event(/*wait=*/true, op.peer, key_of(op.peer, op.tag),
                         now);
        }
        wait_key_ = key_of(op.peer, op.tag);
        if (mc.recv_wait == RecvWait::Spin) return RunDecision::spin();
        // Spin-block (demand-based co-scheduling): burn the threshold on
        // the CPU once, then yield and wait for the arrival wakeup.
        if (!spun_ && mc.spin_threshold > sim::Duration::zero()) {
          spun_ = true;
          return RunDecision::compute(mc.spin_threshold);
        }
        return RunDecision::block();
      }
      case MicroOp::Kind::Io:
        if (io_done_) {
          io_done_ = false;
          ++head_;
          break;
        }
        job_.submit_io(*this, op.bytes);
        return RunDecision::block();
      case MicroOp::Kind::MarkBegin:
        PASCHED_ASSERT(op.channel < kMaxChannels);
        open_mark_[op.channel] = now;
        ++head_;
        break;
      case MicroOp::Kind::MarkEnd:
        PASCHED_ASSERT(op.channel < kMaxChannels);
        job_.on_span(*this, op.channel, op.seq, open_mark_[op.channel], now);
        ++head_;
        break;
      case MicroOp::Kind::HwCollective:
        // Contribution costs one message injection; the combined result
        // arrives later as a message from the switch (workloads follow this
        // op with Recv(kHwSwitchRank, seq)).
        if (!charging_) {
          charging_ = true;
          return RunDecision::compute(job_.mpi_config().o_send);
        }
        charging_ = false;
        job_.hw_contribute(*this, op.seq, op.bytes);
        ++head_;
        break;
      case MicroOp::Kind::Detach:
        job_.hook_detach(*this);
        ++head_;
        break;
      case MicroOp::Kind::Attach:
        job_.hook_attach(*this);
        ++head_;
        break;
    }
  }
}

}  // namespace pasched::mpi
