#include "apps/implicit_cg.hpp"

#include <algorithm>

#include "apps/channels.hpp"
#include "mpi/collectives.hpp"
#include "util/assert.hpp"

namespace pasched::apps {

namespace {

class ImplicitCg final : public mpi::Workload {
 public:
  explicit ImplicitCg(ImplicitCgConfig cfg) : cfg_(cfg) {
    PASCHED_EXPECTS(cfg_.timesteps >= 1);
    PASCHED_EXPECTS(cfg_.iterations_per_step >= 1);
  }

  bool refill(const mpi::TaskInfo& info,
              std::vector<mpi::MicroOp>& out) override {
    if (step_ >= cfg_.timesteps) return false;
    if (step_ == 0 && iter_ == 0)
      out.push_back(mpi::MicroOp::barrier(next_tag()));
    if (iter_ == 0)
      out.push_back(mpi::MicroOp::mark_begin(
          kChanStep, static_cast<std::uint64_t>(step_)));

    // One CG iteration: matvec (+halo), then two dot products.
    out.push_back(mpi::MicroOp::mark_begin(kChanCompute, compute_seq_));
    const double mean_ns = static_cast<double>(cfg_.matvec_work.count());
    const double ns = std::max(
        mean_ns * 0.25, info.rng->normal(mean_ns, mean_ns * cfg_.work_cv));
    out.push_back(
        mpi::MicroOp::compute(sim::Duration::ns(static_cast<std::int64_t>(ns))));
    out.push_back(mpi::MicroOp::mark_end(kChanCompute, compute_seq_));
    ++compute_seq_;
    out.push_back(mpi::MicroOp::halo_exchange(cfg_.halo_bytes, next_tag()));
    for (int d = 0; d < 2; ++d) {
      out.push_back(mpi::MicroOp::mark_begin(kChanAllreduce, allreduce_seq_));
      out.push_back(mpi::MicroOp::allreduce(cfg_.dot_bytes, next_tag(),
                                            mpi::AllreduceAlg::BinomialTree));
      out.push_back(mpi::MicroOp::mark_end(kChanAllreduce, allreduce_seq_));
      ++allreduce_seq_;
    }

    if (++iter_ >= cfg_.iterations_per_step) {
      iter_ = 0;
      out.push_back(mpi::MicroOp::mark_end(
          kChanStep, static_cast<std::uint64_t>(step_)));
      ++step_;
    }
    return true;
  }

 private:
  std::uint64_t next_tag() { return mpi::kTagStride * coll_seq_++; }

  ImplicitCgConfig cfg_;
  int step_ = 0;
  int iter_ = 0;
  std::uint64_t coll_seq_ = 0;
  std::uint64_t allreduce_seq_ = 0;
  std::uint64_t compute_seq_ = 0;
};

}  // namespace

mpi::WorkloadFactory implicit_cg(ImplicitCgConfig cfg) {
  return [cfg](int /*rank*/, int /*size*/) {
    return std::make_unique<ImplicitCg>(cfg);
  };
}

}  // namespace pasched::apps
