#include "apps/bsp.hpp"

#include <algorithm>

#include "apps/channels.hpp"
#include "mpi/collectives.hpp"
#include "util/assert.hpp"

namespace pasched::apps {

namespace {

class Bsp final : public mpi::Workload {
 public:
  explicit Bsp(BspConfig cfg) : cfg_(cfg) { PASCHED_EXPECTS(cfg_.steps >= 1); }

  bool refill(const mpi::TaskInfo& info,
              std::vector<mpi::MicroOp>& out) override {
    if (step_ >= cfg_.steps) return false;
    if (step_ == 0) out.push_back(mpi::MicroOp::barrier(next_tag()));
    const auto seq = static_cast<std::uint64_t>(step_);
    out.push_back(mpi::MicroOp::mark_begin(kChanStep, seq));
    out.push_back(mpi::MicroOp::mark_begin(kChanCompute, seq));
    const double mean_ns = static_cast<double>(cfg_.compute_mean.count());
    const double ns = std::max(
        mean_ns * 0.25, info.rng->normal(mean_ns, mean_ns * cfg_.compute_cv));
    out.push_back(mpi::MicroOp::compute(
        sim::Duration::ns(static_cast<std::int64_t>(ns))));
    out.push_back(mpi::MicroOp::mark_end(kChanCompute, seq));
    for (int r = 0; r < cfg_.allreduces_per_step; ++r) {
      out.push_back(mpi::MicroOp::mark_begin(kChanAllreduce, allreduce_seq_));
      out.push_back(mpi::MicroOp::allreduce(cfg_.allreduce_bytes, next_tag(),
                                            cfg_.alg));
      out.push_back(mpi::MicroOp::mark_end(kChanAllreduce, allreduce_seq_));
      ++allreduce_seq_;
    }
    out.push_back(mpi::MicroOp::mark_end(kChanStep, seq));
    ++step_;
    return true;
  }

 private:
  std::uint64_t next_tag() { return mpi::kTagStride * coll_seq_++; }

  BspConfig cfg_;
  int step_ = 0;
  std::uint64_t coll_seq_ = 0;
  std::uint64_t allreduce_seq_ = 0;
};

}  // namespace

mpi::WorkloadFactory bsp(BspConfig cfg) {
  return [cfg](int /*rank*/, int /*size*/) { return std::make_unique<Bsp>(cfg); };
}

}  // namespace pasched::apps
