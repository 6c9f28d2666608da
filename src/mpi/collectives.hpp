// Collective communication schedules, streamed per rank as point-to-point
// MicroOps. A workload emits one MicroOp::Collective op per collective;
// the task asks collective_step for the op at each step index, so no
// schedule is ever expanded into memory. Tags encode (collective sequence
// number, step) so concurrent collectives never alias: tag = tag_base +
// step, with tag_base strided by kTagStride per collective instance.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpi/config.hpp"
#include "mpi/microop.hpp"

namespace pasched::mpi {

/// Tag stride reserved per collective instance (max steps of any schedule).
inline constexpr std::uint64_t kTagStride = 128;

/// Writes the `i`-th point-to-point op (Send, Recv or HwCollective) of
/// rank `rank`'s part of the Collective op `coll` in a communicator of
/// `size` ranks into `out`, and returns true; returns false (leaving `out`
/// alone) once `i` is past the rank's last step. Allocates nothing and
/// costs O(1) integer work per call. The schedules:
///   Barrier        dissemination, ceil(log2 N) send/recv rounds;
///   Reduce, Bcast  binomial trees to / from `coll.peer`;
///   TreeAllreduce  Reduce to 0, then Bcast from 0 at tag_base +
///                  kTagStride / 2 (the paper's "standard tree algorithm");
///   RdAllreduce    recursive doubling, folding the first 2(N - 2^k) ranks
///                  in pairs when N is not a power of two;
///   HwAllreduce    one contribution, then a Recv from kHwSwitchRank;
///   AllgatherRing  N - 1 shift-by-one rounds (N <= kTagStride + 1);
///   AllgatherBruck ceil(log2 N) rounds sending to rank - 2^k;
///   Halo           send right and left, then receive left and right.
/// Every schedule is empty on one rank.
[[nodiscard]] bool collective_step(const MicroOp& coll, int rank, int size,
                                   std::uint32_t i, MicroOp& out);

/// Number of p2p steps on rank 0's critical path of a tree allreduce —
/// used by the analytic "expected ~350 us" model quoted in §5.3.
[[nodiscard]] int tree_allreduce_steps(int size);

/// Analytic ideal allreduce duration for the given runtime/network costs
/// (no interference): the model line of Figure 4.
[[nodiscard]] sim::Duration ideal_allreduce(int size, const MpiConfig& mpi,
                                            sim::Duration wire_latency,
                                            sim::Duration per_byte,
                                            std::size_t bytes);

}  // namespace pasched::mpi
