#include "apps/ale3d_proxy.hpp"

#include <algorithm>

#include "apps/channels.hpp"
#include "mpi/collectives.hpp"
#include "util/assert.hpp"

namespace pasched::apps {

namespace {

class Ale3dProxy final : public mpi::Workload {
 public:
  explicit Ale3dProxy(Ale3dConfig cfg) : cfg_(cfg) {
    PASCHED_EXPECTS(cfg_.timesteps >= 1);
    PASCHED_EXPECTS(cfg_.reductions_per_step >= 0);
  }

  bool refill(const mpi::TaskInfo& info,
              std::vector<mpi::MicroOp>& out) override {
    switch (phase_) {
      case Phase::InitialRead:
        emit_io(out, cfg_.initial_read_bytes, /*seq=*/0);
        phase_ = Phase::Steps;
        return true;
      case Phase::Steps:
        emit_step(out, info);
        ++step_;
        if (cfg_.checkpoint_every > 0 && step_ < cfg_.timesteps &&
            step_ % cfg_.checkpoint_every == 0) {
          emit_io(out, cfg_.checkpoint_bytes,
                  static_cast<std::uint64_t>(step_));
        }
        if (step_ >= cfg_.timesteps) phase_ = Phase::FinalDump;
        return true;
      case Phase::FinalDump:
        emit_io(out, cfg_.final_dump_bytes,
                static_cast<std::uint64_t>(cfg_.timesteps + 1));
        phase_ = Phase::Done;
        return true;
      case Phase::Done:
        return false;
    }
    return false;
  }

 private:
  enum class Phase { InitialRead, Steps, FinalDump, Done };

  std::uint64_t next_tag() { return mpi::kTagStride * coll_seq_++; }

  void emit_io(std::vector<mpi::MicroOp>& out, std::size_t bytes,
               std::uint64_t seq) {
    if (cfg_.detach_for_io) out.push_back(mpi::MicroOp::detach());
    out.push_back(mpi::MicroOp::mark_begin(kChanIo, seq));
    out.push_back(mpi::MicroOp::io(bytes));
    out.push_back(mpi::MicroOp::mark_end(kChanIo, seq));
    if (cfg_.detach_for_io) out.push_back(mpi::MicroOp::attach());
    // Everyone leaves the I/O phase together (restart files are collective).
    out.push_back(mpi::MicroOp::barrier(next_tag()));
  }

  void emit_step(std::vector<mpi::MicroOp>& out, const mpi::TaskInfo& info) {
    const auto seq = static_cast<std::uint64_t>(step_);
    out.push_back(mpi::MicroOp::mark_begin(kChanStep, seq));
    // Lagrange step + remap: compute with mild imbalance across tasks.
    const double mean_ns = static_cast<double>(cfg_.compute_mean.count());
    const double ns = std::max(
        mean_ns * 0.25,
        info.rng->normal(mean_ns, mean_ns * cfg_.compute_cv));
    out.push_back(mpi::MicroOp::compute(
        sim::Duration::ns(static_cast<std::int64_t>(ns))));
    // Nearest-neighbor (element) communication.
    out.push_back(mpi::MicroOp::halo_exchange(cfg_.halo_bytes, next_tag()));
    // Global reductions (timestep control, energy sums, ...).
    for (int r = 0; r < cfg_.reductions_per_step; ++r) {
      out.push_back(mpi::MicroOp::mark_begin(kChanAllreduce, allreduce_seq_));
      out.push_back(mpi::MicroOp::allreduce(cfg_.reduce_bytes, next_tag(),
                                            cfg_.alg));
      out.push_back(mpi::MicroOp::mark_end(kChanAllreduce, allreduce_seq_));
      ++allreduce_seq_;
    }
    out.push_back(mpi::MicroOp::mark_end(kChanStep, seq));
  }

  Ale3dConfig cfg_;
  Phase phase_ = Phase::InitialRead;
  int step_ = 0;
  std::uint64_t coll_seq_ = 0;
  std::uint64_t allreduce_seq_ = 0;
};

}  // namespace

mpi::WorkloadFactory ale3d_proxy(Ale3dConfig cfg) {
  return [cfg](int /*rank*/, int /*size*/) {
    return std::make_unique<Ale3dProxy>(cfg);
  };
}

}  // namespace pasched::apps
