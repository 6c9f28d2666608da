#include "mpi/collectives.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace pasched::mpi {

namespace {

/// ceil(log2 n) for n >= 1.
int ceil_log2(int n) {
  return n <= 1 ? 0 : std::bit_width(static_cast<unsigned>(n - 1));
}

/// (a + b) mod n and (a - b) mod n, for a in [0, n) and b in [0, n].
int add_mod(int a, int b, int n) { return a + b >= n ? a + b - n : a + b; }
int sub_mod(int a, int b, int n) { return a >= b ? a - b : a - b + n; }

std::uint64_t tag_at(std::uint64_t tag_base, int step) {
  return tag_base + static_cast<std::uint64_t>(step);
}

/// Children of relative rank `rel` in the binomial tree rooted at 0: ranks
/// rel + 2^j for j below both rel's lowest set bit (the link to its parent)
/// and ceil(log2(size - rel)) (past which there is no rank).
int tree_children(int rel, int size) {
  const int below = ceil_log2(size - rel);
  return rel == 0 ? below
                  : std::min(std::countr_zero(static_cast<unsigned>(rel)),
                             below);
}

/// Step i of a binomial reduce: receive from each child, nearest first,
/// then hand the partial result to the parent.
bool reduce_step(int rank, int size, int rel, int children,
                 std::size_t bytes, std::uint64_t tag_base, int i,
                 MicroOp& out) {
  if (i < children) {
    out = MicroOp::recv(add_mod(rank, 1 << i, size), tag_at(tag_base, i));
    return true;
  }
  if (rel == 0 || i > children) return false;
  const int up = std::countr_zero(static_cast<unsigned>(rel));
  out = MicroOp::send(sub_mod(rank, 1 << up, size), tag_at(tag_base, up),
                      bytes);
  return true;
}

/// Step i of a binomial broadcast: receive from the parent, then send to
/// each child, farthest first.
bool bcast_step(int rank, int size, int rel, int children,
                std::size_t bytes, std::uint64_t tag_base, int i,
                MicroOp& out) {
  if (rel != 0) {
    const int up = std::countr_zero(static_cast<unsigned>(rel));
    if (i == 0) {
      out = MicroOp::recv(sub_mod(rank, 1 << up, size), tag_at(tag_base, up));
      return true;
    }
    --i;
  }
  if (i >= children) return false;
  const int t = children - 1 - i;
  out = MicroOp::send(add_mod(rank, 1 << t, size), tag_at(tag_base, t), bytes);
  return true;
}

bool rd_step(int rank, int size, std::size_t bytes, std::uint64_t tag_base,
             int i, MicroOp& out) {
  // Recursive doubling over the largest power of two p2 <= size. The first
  // 2r ranks (r = size - p2) fold in pairs: the even one hands its data to
  // its odd neighbor at step 0 and gets the result back at the unfold step.
  const int p2 = static_cast<int>(std::bit_floor(static_cast<unsigned>(size)));
  const int r = size - p2;
  const int rounds = std::countr_zero(static_cast<unsigned>(p2));
  const std::uint64_t unfold = tag_at(tag_base, 1 + rounds);
  const bool folded = rank < 2 * r;
  if (folded && rank % 2 == 0) {
    if (i > 1) return false;
    out = i == 0 ? MicroOp::send(rank + 1, tag_base, bytes)
                 : MicroOp::recv(rank + 1, unfold);
    return true;
  }
  int group = rank - r;  // index within the power-of-two group
  if (folded) {
    if (i == 0) {
      out = MicroOp::recv(rank - 1, tag_base);
      return true;
    }
    --i;
    group = rank / 2;
  }
  if (i < 2 * rounds) {
    const int g = group ^ (1 << (i / 2));
    const int peer = g < r ? 2 * g + 1 : g + r;
    const std::uint64_t tag = tag_at(tag_base, 1 + i / 2);
    out = i % 2 == 0 ? MicroOp::send(peer, tag, bytes)
                     : MicroOp::recv(peer, tag);
    return true;
  }
  if (!folded || i > 2 * rounds) return false;
  out = MicroOp::send(rank - 1, unfold, bytes);
  return true;
}

}  // namespace

bool collective_step(const MicroOp& coll, int rank, int size, std::uint32_t i,
                     MicroOp& out) {
  using Schedule = MicroOp::Schedule;
  PASCHED_EXPECTS(coll.kind == MicroOp::Kind::Collective);
  PASCHED_EXPECTS(size >= 1 && rank >= 0 && rank < size);
  PASCHED_EXPECTS(coll.peer >= 0 && coll.peer < size);
  // No schedule spends more than two steps on one of its kTagStride tags.
  if (size == 1 || i >= 2 * kTagStride) return false;
  const int step = static_cast<int>(i);
  const std::uint64_t tb = coll.tag();
  switch (coll.schedule) {
    case Schedule::Barrier: {
      if (step >= 2 * ceil_log2(size)) return false;
      const int dist = 1 << (step / 2);
      const std::uint64_t tag = tag_at(tb, step / 2);
      out = step % 2 == 0 ? MicroOp::send(add_mod(rank, dist, size), tag, 0)
                          : MicroOp::recv(sub_mod(rank, dist, size), tag);
      return true;
    }
    case Schedule::Reduce:
    case Schedule::Bcast:
    case Schedule::TreeAllreduce: {
      const int rel = sub_mod(rank, coll.peer, size);
      const int children = tree_children(rel, size);
      if (coll.schedule == Schedule::Reduce)
        return reduce_step(rank, size, rel, children, coll.bytes, tb, step,
                           out);
      if (coll.schedule == Schedule::Bcast)
        return bcast_step(rank, size, rel, children, coll.bytes, tb, step,
                          out);
      // Reduce to the root, then broadcast back down the same tree.
      const int reduce_ops = children + (rel != 0 ? 1 : 0);
      if (step < reduce_ops)
        return reduce_step(rank, size, rel, children, coll.bytes, tb, step,
                           out);
      return bcast_step(rank, size, rel, children, coll.bytes,
                        tb + kTagStride / 2, step - reduce_ops, out);
    }
    case Schedule::RdAllreduce:
      return rd_step(rank, size, coll.bytes, tb, step, out);
    case Schedule::HwAllreduce:
      if (step > 1) return false;
      out = step == 0 ? MicroOp::hw_collective(tb, coll.bytes)
                      : MicroOp::recv(kHwSwitchRank, tb);
      return true;
    case Schedule::AllgatherRing: {
      // Round k's tag is tag_base + k, so N - 1 rounds must fit the stride.
      PASCHED_EXPECTS(static_cast<std::uint64_t>(size) <= kTagStride + 1);
      if (step >= 2 * (size - 1)) return false;
      const std::uint64_t tag = tag_at(tb, step / 2);
      out = step % 2 == 0
                ? MicroOp::send(add_mod(rank, 1, size), tag, coll.bytes)
                : MicroOp::recv(sub_mod(rank, 1, size), tag);
      return true;
    }
    case Schedule::AllgatherBruck: {
      // Round k: a rank holds 2^k blocks and passes min(2^k, N - 2^k) of
      // them to rank - 2^k, receiving as many from rank + 2^k.
      if (step >= 2 * ceil_log2(size)) return false;
      const int dist = 1 << (step / 2);
      const std::uint64_t tag = tag_at(tb, step / 2);
      const auto moved = static_cast<std::size_t>(std::min(dist, size - dist));
      out = step % 2 == 0 ? MicroOp::send(sub_mod(rank, dist, size), tag,
                                          coll.bytes * moved)
                          : MicroOp::recv(add_mod(rank, dist, size), tag);
      return true;
    }
    case Schedule::Halo: {
      const int right = add_mod(rank, 1, size);
      const int left = sub_mod(rank, 1, size);
      if (size == 2) {  // left == right: one exchange
        if (step > 1) return false;
        out = step == 0 ? MicroOp::send(right, tb, coll.bytes)
                        : MicroOp::recv(left, tb);
        return true;
      }
      switch (step) {
        case 0: out = MicroOp::send(right, tb, coll.bytes); return true;
        case 1: out = MicroOp::send(left, tb + 1, coll.bytes); return true;
        case 2: out = MicroOp::recv(left, tb); return true;
        case 3: out = MicroOp::recv(right, tb + 1); return true;
        default: return false;
      }
    }
  }
  return false;
}

int tree_allreduce_steps(int size) { return 2 * ceil_log2(size); }

sim::Duration ideal_allreduce(int size, const MpiConfig& mpi,
                              sim::Duration wire_latency,
                              sim::Duration per_byte, std::size_t bytes) {
  // Critical-path model: each of the 2*ceil(log2 N) tree levels costs one
  // message injection, the wire, and one receive on the critical chain.
  const auto steps = static_cast<std::int64_t>(tree_allreduce_steps(size));
  const sim::Duration per_step = mpi.o_send + mpi.o_recv + wire_latency +
                                 per_byte * static_cast<std::int64_t>(bytes);
  return per_step * steps;
}

}  // namespace pasched::mpi
