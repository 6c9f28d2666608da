// A workload emits one Collective op per collective; the task streams each
// rank's Send/Recv steps from mpi::collective_step. These tests check the
// streamed schedules without running the simulator:
//   * they match a reference expansion (the vector-building expanders the
//     schedules were written as, kept here as an oracle) op for op, for
//     every rank at many communicator sizes;
//   * every Recv has exactly one matching Send (same peer pair and tag);
//   * the induced dependency graph is acyclic (a valid execution order
//     exists given sequential per-rank execution and spin-waiting receives);
//   * reductions actually gather every rank's contribution at the root, and
//     broadcasts reach every rank (data-flow check);
//   * step counts respect the paper's 2*log2(N) bound for the tree
//     allreduce.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "mpi/collectives.hpp"
#include "mpi/microop.hpp"

using pasched::mpi::AllreduceAlg;
using pasched::mpi::kTagStride;
using pasched::mpi::MicroOp;

namespace {

// ---------------------------------------------------------------------------
// Reference expanders: each rank's whole schedule as a vector of ops, in the
// loop form the streamed schedules were derived from. Test-only oracle.
// ---------------------------------------------------------------------------
namespace ref {

int ceil_log2(int n) {
  int k = 0;
  while ((1 << k) < n) ++k;
  return k;
}

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

void reduce(std::vector<MicroOp>& out, int rank, int size, int root,
            std::size_t bytes, std::uint64_t tag_base) {
  if (size == 1) return;
  const int rel = (rank - root + size) % size;
  int step = 0;
  for (int mask = 1; mask < size; mask <<= 1, ++step) {
    if ((rel & mask) != 0) {
      const int peer = (rank - mask + size) % size;
      out.push_back(MicroOp::send(
          peer, tag_base + static_cast<std::uint64_t>(step), bytes));
      return;
    }
    if (rel + mask < size) {
      const int peer = (rank + mask) % size;
      out.push_back(
          MicroOp::recv(peer, tag_base + static_cast<std::uint64_t>(step)));
    }
  }
}

void bcast(std::vector<MicroOp>& out, int rank, int size, int root,
           std::size_t bytes, std::uint64_t tag_base) {
  if (size == 1) return;
  const int rel = (rank - root + size) % size;
  int mask = 1;
  while (mask < size) {
    if ((rel & mask) != 0) {
      const int step = std::countr_zero(static_cast<unsigned>(mask));
      const int peer = (rank - mask + size) % size;
      out.push_back(
          MicroOp::recv(peer, tag_base + static_cast<std::uint64_t>(step)));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < size) {
      const int step = std::countr_zero(static_cast<unsigned>(mask));
      const int peer = (rank + mask) % size;
      out.push_back(MicroOp::send(
          peer, tag_base + static_cast<std::uint64_t>(step), bytes));
    }
    mask >>= 1;
  }
}

void allreduce_rd(std::vector<MicroOp>& out, int rank, int size,
                  std::size_t bytes, std::uint64_t tag_base) {
  const int p2 = floor_pow2(size);
  const int r = size - p2;
  const std::uint64_t unfold_step =
      1 + static_cast<std::uint64_t>(ceil_log2(p2));
  int group;
  if (rank < 2 * r) {
    if ((rank % 2) == 0) {
      out.push_back(MicroOp::send(rank + 1, tag_base, bytes));
      out.push_back(MicroOp::recv(rank + 1, tag_base + unfold_step));
      return;
    }
    out.push_back(MicroOp::recv(rank - 1, tag_base));
    group = rank / 2;
  } else {
    group = rank - r;
  }
  auto rank_of_group = [r](int g) { return g < r ? 2 * g + 1 : g + r; };
  int step = 1;
  for (int mask = 1; mask < p2; mask <<= 1, ++step) {
    const int peer = rank_of_group(group ^ mask);
    const std::uint64_t tag = tag_base + static_cast<std::uint64_t>(step);
    out.push_back(MicroOp::send(peer, tag, bytes));
    out.push_back(MicroOp::recv(peer, tag));
  }
  if (rank < 2 * r)
    out.push_back(MicroOp::send(rank - 1, tag_base + unfold_step, bytes));
}

void allreduce(std::vector<MicroOp>& out, int rank, int size,
               std::size_t bytes, std::uint64_t tag_base, AllreduceAlg alg) {
  if (size == 1) return;
  switch (alg) {
    case AllreduceAlg::BinomialTree:
      reduce(out, rank, size, 0, bytes, tag_base);
      bcast(out, rank, size, 0, bytes, tag_base + kTagStride / 2);
      return;
    case AllreduceAlg::RecursiveDoubling:
      allreduce_rd(out, rank, size, bytes, tag_base);
      return;
    case AllreduceAlg::HardwareSwitch:
      out.push_back(MicroOp::hw_collective(tag_base, bytes));
      out.push_back(MicroOp::recv(pasched::mpi::kHwSwitchRank, tag_base));
      return;
  }
}

void barrier(std::vector<MicroOp>& out, int rank, int size,
             std::uint64_t tag_base) {
  if (size == 1) return;
  for (int k = 0; k < ceil_log2(size); ++k) {
    const int dist = 1 << k;
    const int to = (rank + dist) % size;
    const int from = (rank - dist % size + size) % size;
    const std::uint64_t tag = tag_base + static_cast<std::uint64_t>(k);
    out.push_back(MicroOp::send(to, tag, 0));
    out.push_back(MicroOp::recv(from, tag));
  }
}

void allgather_ring(std::vector<MicroOp>& out, int rank, int size,
                    std::size_t bytes, std::uint64_t tag_base) {
  const int right = (rank + 1) % size;
  const int left = (rank - 1 + size) % size;
  for (int k = 0; k < size - 1; ++k) {
    const std::uint64_t tag = tag_base + static_cast<std::uint64_t>(k);
    out.push_back(MicroOp::send(right, tag, bytes));
    out.push_back(MicroOp::recv(left, tag));
  }
}

void allgather_bruck(std::vector<MicroOp>& out, int rank, int size,
                     std::size_t bytes, std::uint64_t tag_base) {
  if (size == 1) return;
  int held = 1;  // blocks currently held (own block first)
  int step = 0;
  for (int dist = 1; dist < size; dist <<= 1, ++step) {
    const int to = (rank - dist % size + size) % size;
    const int from = (rank + dist) % size;
    const int moved = std::min(held, size - held);
    const std::uint64_t tag = tag_base + static_cast<std::uint64_t>(step);
    out.push_back(MicroOp::send(to, tag,
                                bytes * static_cast<std::size_t>(moved)));
    out.push_back(MicroOp::recv(from, tag));
    held += moved;
  }
}

void halo_exchange(std::vector<MicroOp>& out, int rank, int size,
                   std::size_t bytes, std::uint64_t tag_base) {
  if (size == 1) return;
  const int right = (rank + 1) % size;
  const int left = (rank - 1 + size) % size;
  out.push_back(MicroOp::send(right, tag_base + 0, bytes));
  if (size > 2) out.push_back(MicroOp::send(left, tag_base + 1, bytes));
  out.push_back(MicroOp::recv(left, tag_base + 0));
  if (size > 2) out.push_back(MicroOp::recv(right, tag_base + 1));
}

/// The reference expansion of one Collective op.
std::vector<MicroOp> expand(const MicroOp& c, int rank, int size) {
  using S = MicroOp::Schedule;
  std::vector<MicroOp> out;
  switch (c.schedule) {
    case S::Barrier: barrier(out, rank, size, c.tag()); break;
    case S::Reduce: reduce(out, rank, size, c.peer, c.bytes, c.tag()); break;
    case S::Bcast: bcast(out, rank, size, c.peer, c.bytes, c.tag()); break;
    case S::TreeAllreduce:
      allreduce(out, rank, size, c.bytes, c.tag(), AllreduceAlg::BinomialTree);
      break;
    case S::RdAllreduce:
      allreduce(out, rank, size, c.bytes, c.tag(),
                AllreduceAlg::RecursiveDoubling);
      break;
    case S::HwAllreduce:
      allreduce(out, rank, size, c.bytes, c.tag(),
                AllreduceAlg::HardwareSwitch);
      break;
    case S::AllgatherRing:
      allgather_ring(out, rank, size, c.bytes, c.tag());
      break;
    case S::AllgatherBruck:
      allgather_bruck(out, rank, size, c.bytes, c.tag());
      break;
    case S::Halo: halo_exchange(out, rank, size, c.bytes, c.tag()); break;
  }
  return out;
}

}  // namespace ref

/// Rank `rank`'s streamed steps of `coll`, collected.
std::vector<MicroOp> stream(const MicroOp& coll, int rank, int size) {
  std::vector<MicroOp> out;
  MicroOp op;
  for (std::uint32_t i = 0;
       pasched::mpi::collective_step(coll, rank, size, i, op); ++i)
    out.push_back(op);
  return out;
}

using Schedule = std::vector<std::vector<MicroOp>>;  // [rank] -> ops

/// Every rank's streamed program: `colls` run back to back.
Schedule expand(int size, const std::vector<MicroOp>& colls) {
  Schedule s(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r)
    for (const MicroOp& c : colls)
      for (const MicroOp& op : stream(c, r, size))
        s[static_cast<std::size_t>(r)].push_back(op);
  return s;
}

/// Simulates sequential execution with spin-waiting receives: repeatedly run
/// each rank until it blocks on a Recv whose message has not been sent yet.
/// Returns true if every rank finishes (no deadlock, all messages matched).
/// `carry` optionally tracks data-flow: each message carries the union of
/// contribution sets; Recv merges into the receiver's set.
bool executes_to_completion(const Schedule& s,
                            std::vector<std::set<int>>* carry = nullptr) {
  const int n = static_cast<int>(s.size());
  std::vector<std::size_t> pc(static_cast<std::size_t>(n), 0);
  // (src, dst, tag) -> queue of payloads
  std::map<std::tuple<int, int, std::uint64_t>, std::queue<std::set<int>>> net;
  std::vector<std::set<int>> data(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) data[static_cast<std::size_t>(r)].insert(r);

  bool progress = true;
  while (progress) {
    progress = false;
    for (int r = 0; r < n; ++r) {
      auto& my_pc = pc[static_cast<std::size_t>(r)];
      const auto& ops = s[static_cast<std::size_t>(r)];
      while (my_pc < ops.size()) {
        const MicroOp& op = ops[my_pc];
        if (op.kind == MicroOp::Kind::Send) {
          net[{r, op.peer, op.tag()}].push(data[static_cast<std::size_t>(r)]);
          ++my_pc;
          progress = true;
        } else if (op.kind == MicroOp::Kind::Recv) {
          auto it = net.find({op.peer, r, op.tag()});
          if (it == net.end() || it->second.empty()) break;  // spin-wait
          for (int v : it->second.front())
            data[static_cast<std::size_t>(r)].insert(v);
          it->second.pop();
          ++my_pc;
          progress = true;
        } else {
          ++my_pc;  // compute / markers are local
          progress = true;
        }
      }
    }
  }
  for (int r = 0; r < n; ++r)
    if (pc[static_cast<std::size_t>(r)] != s[static_cast<std::size_t>(r)].size())
      return false;
  // No unconsumed messages allowed (every send matched by a recv).
  for (const auto& [key, q] : net)
    if (!q.empty()) return false;
  if (carry != nullptr) *carry = data;
  return true;
}

int count_p2p(const Schedule& s) {
  int sends = 0;
  for (const auto& ops : s)
    for (const auto& op : ops)
      if (op.kind == MicroOp::Kind::Send) ++sends;
  return sends;
}

/// Streams every rank's part of `coll` and compares it with the reference
/// expansion op for op (kind, peer, tag, bytes); stops at the first
/// difference.
::testing::AssertionResult matches_reference(const MicroOp& coll, int size) {
  for (int rank = 0; rank < size; ++rank) {
    const std::vector<MicroOp> want = ref::expand(coll, rank, size);
    MicroOp got;
    for (std::uint32_t i = 0;; ++i) {
      const bool more =
          pasched::mpi::collective_step(coll, rank, size, i, got);
      if (i == want.size()) {
        if (!more) break;
        return ::testing::AssertionFailure()
               << "rank " << rank << " of " << size << ": step " << i
               << " streamed past the reference's " << want.size() << " ops";
      }
      if (!more)
        return ::testing::AssertionFailure()
               << "rank " << rank << " of " << size << ": stream ended at "
               << i << " of " << want.size() << " ops";
      const MicroOp& w = want[i];
      if (got.kind != w.kind || got.peer != w.peer || got.tag() != w.tag() ||
          got.bytes != w.bytes) {
        return ::testing::AssertionFailure()
               << "rank " << rank << " of " << size << ", step " << i
               << ": streamed (kind " << static_cast<int>(got.kind)
               << ", peer " << got.peer << ", tag " << got.tag() << ", bytes "
               << got.bytes << "), reference (kind "
               << static_cast<int>(w.kind) << ", peer " << w.peer << ", tag "
               << w.tag() << ", bytes " << w.bytes << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

// ---------------------------------------------------------------------------
// The streamed schedules against the reference expansion.
// ---------------------------------------------------------------------------
TEST(CollectiveOracle, StreamedStepsMatchTheReferenceExpansion) {
  std::vector<int> sizes;
  for (int n = 1; n <= 70; ++n) sizes.push_back(n);
  for (int n : {127, 128, 129, 944, 1024, 8192}) sizes.push_back(n);
  const std::uint64_t tb = 3 * kTagStride;
  for (int n : sizes) {
    SCOPED_TRACE(::testing::Message() << "size " << n);
    std::vector<MicroOp> colls = {
        MicroOp::barrier(tb),
        MicroOp::allreduce(8, tb, AllreduceAlg::BinomialTree),
        MicroOp::allreduce(16, tb, AllreduceAlg::RecursiveDoubling),
        MicroOp::allreduce(24, tb, AllreduceAlg::HardwareSwitch),
        MicroOp::allgather_bruck(56, tb),
        MicroOp::halo_exchange(32 * 1024, tb)};
    // The ring's N - 1 rounds each take one tag of the stride.
    if (n <= static_cast<int>(kTagStride) + 1)
      colls.push_back(MicroOp::allgather_ring(64, tb));
    for (int root : {0, n / 2, n - 1}) {
      colls.push_back(MicroOp::reduce(root, 40, tb));
      colls.push_back(MicroOp::bcast(root, 48, tb));
    }
    for (const MicroOp& c : colls) {
      SCOPED_TRACE(::testing::Message()
                   << "schedule " << static_cast<int>(c.schedule) << " root "
                   << c.peer);
      ASSERT_TRUE(matches_reference(c, n));
    }
  }
}

TEST(CollectiveOracle, StepPastTheEndLeavesTheOutputAlone) {
  const MicroOp coll = MicroOp::allreduce(8, 0, AllreduceAlg::BinomialTree);
  MicroOp out = MicroOp::compute(pasched::sim::Duration::us(7));
  for (std::uint32_t i : {20U, 127U, 128U, 4'000'000'000U})
    EXPECT_FALSE(pasched::mpi::collective_step(coll, 3, 16, i, out));
  EXPECT_EQ(out.kind, MicroOp::Kind::Compute);
  EXPECT_EQ(out.dur().count(), pasched::sim::Duration::us(7).count());
}

// ---------------------------------------------------------------------------
// Parameterized over communicator sizes (powers of two, odd sizes, primes).
// ---------------------------------------------------------------------------
class CollectiveSizes : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 24, 31,
                                           32, 59, 64, 100, 128, 255, 256,
                                           944));

TEST_P(CollectiveSizes, ReduceGathersAllContributionsAtRoot) {
  const int n = GetParam();
  auto s = expand(n, {MicroOp::reduce(0, 8, 0)});
  std::vector<std::set<int>> data;
  ASSERT_TRUE(executes_to_completion(s, &data));
  EXPECT_EQ(data[0].size(), static_cast<std::size_t>(n))
      << "root must see every rank's contribution";
}

TEST_P(CollectiveSizes, ReduceWithNonZeroRoot) {
  const int n = GetParam();
  const int root = (n > 1) ? n / 2 : 0;
  auto s = expand(n, {MicroOp::reduce(root, 8, 0)});
  std::vector<std::set<int>> data;
  ASSERT_TRUE(executes_to_completion(s, &data));
  EXPECT_EQ(data[static_cast<std::size_t>(root)].size(),
            static_cast<std::size_t>(n));
}

TEST_P(CollectiveSizes, BcastReachesEveryRank) {
  const int n = GetParam();
  auto s = expand(n, {MicroOp::bcast(0, 8, 0)});
  std::vector<std::set<int>> data;
  ASSERT_TRUE(executes_to_completion(s, &data));
  for (int r = 0; r < n; ++r)
    EXPECT_TRUE(data[static_cast<std::size_t>(r)].count(0))
        << "rank " << r << " missing the root's data";
}

TEST_P(CollectiveSizes, TreeAllreduceIsCorrectAndBounded) {
  const int n = GetParam();
  auto s = expand(n, {MicroOp::allreduce(8, 0, AllreduceAlg::BinomialTree)});
  std::vector<std::set<int>> data;
  ASSERT_TRUE(executes_to_completion(s, &data));
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(data[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(n))
        << "rank " << r << " must end with the full reduction";
  // "The standard tree algorithm ... does no more than 2*log2(N) separate
  // point to point communications" — per rank on the critical path; total
  // sends are bounded by 2*(N-1).
  EXPECT_LE(count_p2p(s), 2 * (n - 1) + 2);
}

TEST_P(CollectiveSizes, RecursiveDoublingAllreduceIsCorrect) {
  const int n = GetParam();
  auto s =
      expand(n, {MicroOp::allreduce(8, 0, AllreduceAlg::RecursiveDoubling)});
  std::vector<std::set<int>> data;
  ASSERT_TRUE(executes_to_completion(s, &data));
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(data[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(n));
}

TEST_P(CollectiveSizes, BarrierCompletesWithoutDeadlock) {
  const int n = GetParam();
  EXPECT_TRUE(executes_to_completion(expand(n, {MicroOp::barrier(0)})));
}

TEST_P(CollectiveSizes, AllgatherRingDistributesEverything) {
  const int n = GetParam();
  if (n > 128) GTEST_SKIP() << "ring is O(N^2) messages; bounded here";
  auto s = expand(n, {MicroOp::allgather_ring(64, 0)});
  std::vector<std::set<int>> data;
  ASSERT_TRUE(executes_to_completion(s, &data));
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(data[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(n));
}

TEST_P(CollectiveSizes, AllgatherBruckDistributesEverythingInLogRounds) {
  const int n = GetParam();
  auto s = expand(n, {MicroOp::allgather_bruck(64, 0)});
  std::vector<std::set<int>> data;
  ASSERT_TRUE(executes_to_completion(s, &data));
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(data[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(n));
  // log-round structure: each rank sends ceil(log2 N) messages.
  if (n > 1) {
    int rounds = 0;
    while ((1 << rounds) < n) ++rounds;
    EXPECT_EQ(count_p2p(s), n * rounds);
  }
}

TEST_P(CollectiveSizes, HaloExchangeMatches) {
  const int n = GetParam();
  auto s = expand(n, {MicroOp::halo_exchange(1024, 0)});
  std::vector<std::set<int>> data;
  ASSERT_TRUE(executes_to_completion(s, &data));
  if (n > 1) {
    for (int r = 0; r < n; ++r) {
      EXPECT_TRUE(data[static_cast<std::size_t>(r)].count((r + 1) % n));
      EXPECT_TRUE(data[static_cast<std::size_t>(r)].count((r - 1 + n) % n));
    }
  }
}

TEST_P(CollectiveSizes, BackToBackCollectivesDoNotAliasTags) {
  const int n = GetParam();
  if (n > 256) GTEST_SKIP() << "kept small; tag logic is size-independent";
  // Three consecutive collectives with distinct tag bases, interleaved in
  // each rank's program — exactly how aggregate_trace emits them.
  auto s = expand(
      n, {MicroOp::barrier(0 * kTagStride),
          MicroOp::allreduce(8, 1 * kTagStride, AllreduceAlg::BinomialTree),
          MicroOp::allreduce(8, 2 * kTagStride,
                             AllreduceAlg::RecursiveDoubling)});
  EXPECT_TRUE(executes_to_completion(s));
}

TEST(Collectives, StepsBoundMatchesPaperFormula) {
  EXPECT_EQ(pasched::mpi::tree_allreduce_steps(2), 2);
  EXPECT_EQ(pasched::mpi::tree_allreduce_steps(16), 8);
  EXPECT_EQ(pasched::mpi::tree_allreduce_steps(944), 20);  // ceil(log2)=10
  EXPECT_EQ(pasched::mpi::tree_allreduce_steps(1024), 20);
}

TEST(Collectives, IdealModelScalesLogarithmically) {
  pasched::mpi::MpiConfig cfg;
  const auto t256 = pasched::mpi::ideal_allreduce(
      256, cfg, pasched::sim::Duration::us(20), pasched::sim::Duration::ns(2),
      8);
  const auto t1024 = pasched::mpi::ideal_allreduce(
      1024, cfg, pasched::sim::Duration::us(20), pasched::sim::Duration::ns(2),
      8);
  // 16 vs 20 steps: logarithmic, not linear.
  EXPECT_NEAR(static_cast<double>(t1024.count()) /
                  static_cast<double>(t256.count()),
              20.0 / 16.0, 1e-9);
}

TEST(Collectives, SingleRankSchedulesAreEmpty) {
  for (const MicroOp& c :
       {MicroOp::allreduce(8, 0, AllreduceAlg::BinomialTree),
        MicroOp::allreduce(8, 0, AllreduceAlg::HardwareSwitch),
        MicroOp::barrier(0), MicroOp::allgather_ring(8, 0),
        MicroOp::allgather_bruck(8, 0), MicroOp::halo_exchange(8, 0)})
    EXPECT_TRUE(stream(c, 0, 1).empty());
}

TEST(Collectives, InvalidRankRejected) {
  MicroOp out;
  EXPECT_THROW((void)pasched::mpi::collective_step(MicroOp::reduce(0, 8, 0), 5,
                                                   4, 0, out),
               std::logic_error);
  EXPECT_THROW((void)pasched::mpi::collective_step(MicroOp::bcast(9, 8, 0), 0,
                                                   4, 0, out),
               std::logic_error);
}

TEST(Collectives, RingAllgatherPastTheTagStrideRejected) {
  // Round k of the ring uses tag_base + k: N - 1 rounds fit the stride up
  // to N = kTagStride + 1, and one more rank would reach the next base.
  const int fits = static_cast<int>(kTagStride) + 1;
  const MicroOp ring = MicroOp::allgather_ring(8, 0);
  MicroOp out;
  ASSERT_TRUE(pasched::mpi::collective_step(ring, 0, fits,
                                            2 * kTagStride - 1, out));
  EXPECT_EQ(out.tag(), kTagStride - 1);
  EXPECT_THROW(
      (void)pasched::mpi::collective_step(ring, 0, fits + 1, 0, out),
      std::logic_error);
}
