#include "apps/aggregate_trace.hpp"

#include "apps/channels.hpp"
#include "mpi/collectives.hpp"
#include "util/assert.hpp"

namespace pasched::apps {

namespace {

class AggregateTrace final : public mpi::Workload {
 public:
  explicit AggregateTrace(AggregateTraceConfig cfg) : cfg_(cfg) {
    PASCHED_EXPECTS(cfg_.loops >= 1);
    PASCHED_EXPECTS(cfg_.calls_per_loop >= 1);
    PASCHED_EXPECTS(cfg_.trace_block >= 1);
  }

  bool refill(const mpi::TaskInfo& info,
              std::vector<mpi::MicroOp>& out) override {
    const int total_calls = cfg_.loops * cfg_.calls_per_loop;
    if (call_ >= total_calls) return false;
    if (call_ == 0) {
      if (cfg_.warmup > sim::Duration::zero())
        out.push_back(mpi::MicroOp::compute(cfg_.warmup));
      // Synchronize job start so the first timed call measures the
      // collective, not the skew of task launch or warmup.
      out.push_back(mpi::MicroOp::barrier(next_tag()));
    }
    // One Allreduce call per refill keeps the op queue tiny.
    if (cfg_.inter_call_compute > sim::Duration::zero()) {
      out.push_back(mpi::MicroOp::compute(
          info.rng->jittered(cfg_.inter_call_compute, cfg_.compute_jitter)));
    }
    const bool block_start = call_ % cfg_.trace_block == 0;
    const bool block_end = (call_ + 1) % cfg_.trace_block == 0 ||
                           call_ + 1 == total_calls;
    if (block_start) {
      out.push_back(mpi::MicroOp::mark_begin(
          kChanStep, static_cast<std::uint64_t>(call_ / cfg_.trace_block)));
    }
    out.push_back(mpi::MicroOp::mark_begin(
        kChanAllreduce, static_cast<std::uint64_t>(call_)));
    out.push_back(mpi::MicroOp::allreduce(cfg_.allreduce_bytes, next_tag(),
                                          cfg_.alg));
    out.push_back(mpi::MicroOp::mark_end(
        kChanAllreduce, static_cast<std::uint64_t>(call_)));
    if (block_end) {
      out.push_back(mpi::MicroOp::mark_end(
          kChanStep, static_cast<std::uint64_t>(call_ / cfg_.trace_block)));
    }
    ++call_;
    return true;
  }

 private:
  std::uint64_t next_tag() { return mpi::kTagStride * coll_seq_++; }

  AggregateTraceConfig cfg_;
  int call_ = 0;
  std::uint64_t coll_seq_ = 0;
};

}  // namespace

mpi::WorkloadFactory aggregate_trace(AggregateTraceConfig cfg) {
  return [cfg](int /*rank*/, int /*size*/) {
    return std::make_unique<AggregateTrace>(cfg);
  };
}

}  // namespace pasched::apps
