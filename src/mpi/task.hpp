// One MPI task: a kernel thread whose ThreadClient interprets the workload's
// MicroOps. Receives spin on the CPU (dedicated-use HPC style — this is why
// a preempted laggard stalls everyone, §2); I/O blocks (nothing to do while
// mmfsd works, §4).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/node.hpp"
#include "mpi/microop.hpp"
#include "mpi/workload.hpp"
#include "race/domain.hpp"

namespace pasched::mpi {

class Job;

inline constexpr std::uint32_t kMaxChannels = 8;

class Task final : public kern::ThreadClient {
 public:
  Task(Job& job, int rank, int size, cluster::Node& node, kern::CpuId cpu,
       std::unique_ptr<Workload> workload, sim::Rng rng);
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  /// Makes the task runnable (job launch).
  void launch();

  /// Message arrival from the fabric.
  void deposit(int src, std::uint64_t tag);

  /// I/O completion from the node's I/O daemon.
  void io_complete();

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] kern::Thread& thread() noexcept { return *thread_; }
  [[nodiscard]] cluster::Node& node() noexcept { return node_; }
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  /// Simulated time at which this task ran out of work (valid once
  /// finished()). The job's completion time is the max over all ranks.
  [[nodiscard]] sim::Time finish_time() const noexcept { return finish_time_; }

 private:
  friend class Job;

  kern::RunDecision next(sim::Time now) override;
  /// Sends, hardware-collective contributions and remote I/O all post from
  /// next().
  [[nodiscard]] bool posts() const noexcept override { return true; }
  void log_recv_event(bool wait, int src, std::uint64_t key, sim::Time now);
  /// Exact (collision-free) encoding: 24 bits of source rank, 40 bits of tag.
  [[nodiscard]] static std::uint64_t key_of(int src, std::uint64_t tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 40) |
           (tag & ((1ULL << 40) - 1));
  }
  /// (key_of(src, tag), count) of arrived-but-unreceived messages.
  using Mail = std::pair<std::uint64_t, std::uint32_t>;
  [[nodiscard]] std::vector<Mail>::iterator find_mail(std::uint64_t key);
  [[nodiscard]] bool try_consume(int src, std::uint64_t tag);

  Job& job_;
  int rank_;
  cluster::Node& node_;
  race::Owned owned_;  // bound to the home node's shard
  kern::Thread* thread_ = nullptr;
  std::unique_ptr<Workload> workload_;
  sim::Rng rng_;
  TaskInfo info_;

  std::vector<MicroOp> queue_;
  std::size_t head_ = 0;
  bool charging_ = false;   // the front op's CPU overhead has been issued
  bool spun_ = false;       // spin-block: threshold spin already burned
  bool woken_for_recv_ = false;  // demand wakeup occurred (charge its cost)
  bool io_done_ = false;    // pending Io op has completed
  bool finished_ = false;
  sim::Time finish_time_{};
  static constexpr std::uint64_t kNoWait = UINT64_MAX;
  std::uint64_t wait_key_ = kNoWait;

  /// Scanned linearly: a task holds few early keys at once (at most 13 in
  /// the e2e workloads, and under one compared per deposit on average). A
  /// drained entry is swap-removed, so no message allocates or frees a
  /// node.
  std::vector<Mail> mailbox_;
  std::array<sim::Time, kMaxChannels> open_mark_{};
};

}  // namespace pasched::mpi
