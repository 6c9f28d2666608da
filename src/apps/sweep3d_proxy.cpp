#include "apps/sweep3d_proxy.hpp"

#include <algorithm>

#include "apps/channels.hpp"
#include "mpi/collectives.hpp"
#include "util/assert.hpp"

namespace pasched::apps {

std::pair<int, int> sweep_grid(int ntasks) {
  PASCHED_EXPECTS(ntasks >= 1);
  int px = 1;
  for (int d = 1; d * d <= ntasks; ++d)
    if (ntasks % d == 0) px = d;
  return {px, ntasks / px};
}

namespace {

class Sweep3dProxy final : public mpi::Workload {
 public:
  explicit Sweep3dProxy(Sweep3dConfig cfg) : cfg_(cfg) {
    PASCHED_EXPECTS(cfg_.timesteps >= 1);
    PASCHED_EXPECTS(cfg_.sweeps_per_step >= 1);
  }

  bool refill(const mpi::TaskInfo& info,
              std::vector<mpi::MicroOp>& out) override {
    if (step_ >= cfg_.timesteps) return false;
    const auto [px, py] = sweep_grid(info.size);
    const int x = info.rank % px;
    const int y = info.rank / px;
    if (step_ == 0 && sweep_ == 0)
      out.push_back(mpi::MicroOp::barrier(next_tag()));

    if (sweep_ == 0)
      out.push_back(mpi::MicroOp::mark_begin(
          kChanStep, static_cast<std::uint64_t>(step_)));

    // One wavefront pass from the NW corner: strict pipeline order.
    const std::uint64_t tag = next_tag();
    if (x > 0) out.push_back(mpi::MicroOp::recv(info.rank - 1, tag + 0));
    if (y > 0) out.push_back(mpi::MicroOp::recv(info.rank - px, tag + 1));
    const double mean_ns = static_cast<double>(cfg_.cell_work.count());
    const double ns = std::max(
        mean_ns * 0.25, info.rng->normal(mean_ns, mean_ns * cfg_.work_cv));
    out.push_back(
        mpi::MicroOp::compute(sim::Duration::ns(static_cast<std::int64_t>(ns))));
    if (x + 1 < px)
      out.push_back(mpi::MicroOp::send(info.rank + 1, tag + 0,
                                       cfg_.pencil_bytes));
    if (y + 1 < py)
      out.push_back(mpi::MicroOp::send(info.rank + px, tag + 1,
                                       cfg_.pencil_bytes));

    if (++sweep_ >= cfg_.sweeps_per_step) {
      sweep_ = 0;
      if (cfg_.convergence_check) {
        out.push_back(mpi::MicroOp::mark_begin(kChanAllreduce, allreduce_seq_));
        out.push_back(mpi::MicroOp::allreduce(cfg_.reduce_bytes, next_tag(),
                                              mpi::AllreduceAlg::BinomialTree));
        out.push_back(mpi::MicroOp::mark_end(kChanAllreduce, allreduce_seq_));
        ++allreduce_seq_;
      }
      out.push_back(mpi::MicroOp::mark_end(
          kChanStep, static_cast<std::uint64_t>(step_)));
      ++step_;
    }
    return true;
  }

 private:
  std::uint64_t next_tag() { return mpi::kTagStride * coll_seq_++; }

  Sweep3dConfig cfg_;
  int step_ = 0;
  int sweep_ = 0;
  std::uint64_t coll_seq_ = 0;
  std::uint64_t allreduce_seq_ = 0;
};

}  // namespace

mpi::WorkloadFactory sweep3d_proxy(Sweep3dConfig cfg) {
  return [cfg](int /*rank*/, int /*size*/) {
    return std::make_unique<Sweep3dProxy>(cfg);
  };
}

}  // namespace pasched::apps
