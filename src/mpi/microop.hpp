// The task interpreter's instruction set. Workloads (aggregate_trace, the
// ALE3D proxy, ...) emit short sequences of these on demand; the Task
// ThreadClient executes them against the kernel + fabric. A collective is
// one Collective op: the task streams its point-to-point steps from
// mpi::collective_step (collectives.hpp) instead of holding them in its
// op queue.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpi/config.hpp"
#include "sim/time.hpp"

namespace pasched::mpi {

/// Virtual "rank" of the switch's collective-offload unit (never collides
/// with a real rank: jobs are far smaller than 2^23 tasks).
inline constexpr int kHwSwitchRank = 0x7FFFFF;

struct MicroOp {
  enum class Kind : std::uint8_t {
    Compute,    // burn CPU for dur()
    Send,       // o_send CPU, then inject message (peer, tag(), bytes)
    Recv,       // spin until (peer, tag()) arrives, then o_recv CPU
    Io,         // submit `bytes` to the node I/O daemon and block
    MarkBegin,  // open timing span (channel, seq()) — zero cost
    MarkEnd,    // close timing span — zero cost
    Detach,     // ask the co-scheduler to stop favoring this task (I/O phase)
    Attach,     // re-join co-scheduling
    HwCollective,  // contribute to a switch-offloaded collective (§7
                   // future work: "hardware assisted collectives"), then
                   // spin until the switch delivers the combined result
    Collective,    // a whole collective schedule (`schedule`, tag base
                   // tag(), `bytes`, root `peer`), streamed step by step
  };

  /// The collective a Collective op runs (collectives.hpp documents each).
  enum class Schedule : std::uint8_t {
    Barrier,
    Reduce,
    Bcast,
    TreeAllreduce,
    RdAllreduce,
    HwAllreduce,
    AllgatherRing,
    AllgatherBruck,
    Halo,
  };

  Kind kind = Kind::Compute;
  Schedule schedule = Schedule::Barrier;  // Collective
  std::uint16_t channel = 0;              // Mark*
  std::int32_t peer = -1;                 // Send / Recv; Collective root
  /// By kind: Compute's duration in ns; Send/Recv's tag; Mark*/
  /// HwCollective's seq; Collective's tag base.
  std::uint64_t word = 0;
  std::size_t bytes = 0;  // Send / Io / HwCollective / Collective

  [[nodiscard]] sim::Duration dur() const noexcept {
    return sim::Duration::ns(static_cast<std::int64_t>(word));
  }
  [[nodiscard]] std::uint64_t tag() const noexcept { return word; }
  [[nodiscard]] std::uint64_t seq() const noexcept { return word; }

  [[nodiscard]] static MicroOp compute(sim::Duration d) {
    return make(Kind::Compute, static_cast<std::uint64_t>(d.count()));
  }
  [[nodiscard]] static MicroOp send(int peer, std::uint64_t tag,
                                    std::size_t bytes) {
    MicroOp op = make(Kind::Send, tag, bytes);
    op.peer = peer;
    return op;
  }
  [[nodiscard]] static MicroOp recv(int peer, std::uint64_t tag) {
    MicroOp op = make(Kind::Recv, tag);
    op.peer = peer;
    return op;
  }
  [[nodiscard]] static MicroOp io(std::size_t bytes) {
    return make(Kind::Io, 0, bytes);
  }
  [[nodiscard]] static MicroOp mark_begin(std::uint32_t channel,
                                          std::uint64_t seq) {
    MicroOp op = make(Kind::MarkBegin, seq);
    op.channel = static_cast<std::uint16_t>(channel);
    return op;
  }
  [[nodiscard]] static MicroOp mark_end(std::uint32_t channel,
                                        std::uint64_t seq) {
    MicroOp op = make(Kind::MarkEnd, seq);
    op.channel = static_cast<std::uint16_t>(channel);
    return op;
  }
  [[nodiscard]] static MicroOp detach() { return make(Kind::Detach, 0); }
  [[nodiscard]] static MicroOp attach() { return make(Kind::Attach, 0); }
  [[nodiscard]] static MicroOp hw_collective(std::uint64_t seq,
                                             std::size_t bytes) {
    return make(Kind::HwCollective, seq, bytes);
  }

  /// Dissemination barrier (ceil(log2 N) rounds).
  [[nodiscard]] static MicroOp barrier(std::uint64_t tag_base) {
    return collective(Schedule::Barrier, tag_base, 0);
  }
  /// Binomial-tree reduction to rank `root`.
  [[nodiscard]] static MicroOp reduce(int root, std::size_t bytes,
                                      std::uint64_t tag_base) {
    return collective(Schedule::Reduce, tag_base, bytes, root);
  }
  /// Binomial-tree broadcast from rank `root`.
  [[nodiscard]] static MicroOp bcast(int root, std::size_t bytes,
                                     std::uint64_t tag_base) {
    return collective(Schedule::Bcast, tag_base, bytes, root);
  }
  /// Allreduce per `alg`: reduce+bcast tree (the paper's "standard tree
  /// algorithm", <= 2*log2(N) p2p steps), recursive doubling, or the
  /// switch's combine unit.
  [[nodiscard]] static MicroOp allreduce(std::size_t bytes,
                                         std::uint64_t tag_base,
                                         AllreduceAlg alg) {
    switch (alg) {
      case AllreduceAlg::RecursiveDoubling:
        return collective(Schedule::RdAllreduce, tag_base, bytes);
      case AllreduceAlg::HardwareSwitch:
        return collective(Schedule::HwAllreduce, tag_base, bytes);
      case AllreduceAlg::BinomialTree:
        break;
    }
    return collective(Schedule::TreeAllreduce, tag_base, bytes);
  }
  /// Ring allgather: N-1 rounds of shift-by-one, `bytes` contributed per
  /// rank.
  [[nodiscard]] static MicroOp allgather_ring(std::size_t bytes,
                                              std::uint64_t tag_base) {
    return collective(Schedule::AllgatherRing, tag_base, bytes);
  }
  /// Bruck allgather: ceil(log2 N) rounds, works for any N; round k moves
  /// min(2^k, N-2^k) blocks of `bytes` each.
  [[nodiscard]] static MicroOp allgather_bruck(std::size_t bytes,
                                               std::uint64_t tag_base) {
    return collective(Schedule::AllgatherBruck, tag_base, bytes);
  }
  /// Bidirectional nearest-neighbor halo exchange on a 1-D periodic ring.
  [[nodiscard]] static MicroOp halo_exchange(std::size_t bytes,
                                             std::uint64_t tag_base) {
    return collective(Schedule::Halo, tag_base, bytes);
  }

 private:
  [[nodiscard]] static MicroOp make(Kind k, std::uint64_t word,
                                    std::size_t bytes = 0) {
    MicroOp op;
    op.kind = k;
    op.word = word;
    op.bytes = bytes;
    return op;
  }
  [[nodiscard]] static MicroOp collective(Schedule s, std::uint64_t tag_base,
                                          std::size_t bytes, int root = 0) {
    MicroOp op = make(Kind::Collective, tag_base, bytes);
    op.schedule = s;
    op.peer = root;
    return op;
  }
};

// Eight workload ops fit in three cache lines; a task's queue holds one
// refill (a handful of ops), never a collective's expansion.
static_assert(sizeof(MicroOp) == 24);

}  // namespace pasched::mpi
