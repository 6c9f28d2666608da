// The parallel-filesystem I/O daemon (GPFS mmfsd in the paper). Application
// tasks submit I/O requests and block; the daemon needs CPU to service them.
// This is the dependency that made naive co-scheduling *slow down* ALE3D
// (§5.3): deny mmfsd the CPU for 90% of a 5-second window and every
// checkpoint stretches accordingly. The fix — favored task priority placed
// just *above* the daemons but below mmfsd — is exercised against this class.
#pragma once

#include <cstdint>
#include <deque>

#include "kern/kernel.hpp"
#include "race/domain.hpp"
#include "sim/engine.hpp"

namespace pasched::daemons {

struct IoServiceConfig {
  /// mmfsd dispatch priority (fixed). The paper's tuned setup pins this to
  /// 40 and the application's favored priority to 41.
  kern::Priority priority = 40;
  /// Per-request CPU overhead (metadata, buffer management).
  sim::Duration per_request = sim::Duration::us(250);
  /// CPU cost per byte moved (≈100 MB/s effective single-daemon bandwidth).
  sim::Duration per_byte = sim::Duration::ns(10);
  kern::CpuId home_cpu = 0;
};

struct IoServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  sim::Duration busy = sim::Duration::zero();
  sim::Duration max_queue_delay = sim::Duration::zero();
};

class IoService final : private kern::ThreadClient {
 public:
  IoService(kern::Kernel& kernel, IoServiceConfig cfg);

  /// Submits an I/O request; `on_complete` runs (in daemon context) when the
  /// daemon has finished servicing it. Callers typically block their thread
  /// and have on_complete wake it.
  void submit(std::size_t bytes, sim::Engine::Callback on_complete);

  [[nodiscard]] const IoServiceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] kern::Thread& thread() noexcept { return *thread_; }
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }

 private:
  struct Request {
    std::size_t bytes;
    sim::Time submitted;
    sim::Engine::Callback on_complete;
  };

  kern::RunDecision next(sim::Time now) override;
  /// A completion can post (a remote request's ack) or wake a task that
  /// posts on the spot.
  [[nodiscard]] bool posts() const noexcept override { return true; }

  kern::Kernel& kernel_;
  IoServiceConfig cfg_;
  race::Owned owned_;  // the request queue belongs to the home node's shard
  kern::Thread* thread_ = nullptr;
  std::deque<Request> queue_;
  bool servicing_ = false;  // a request's burst has been issued
  IoServiceStats stats_;
};

}  // namespace pasched::daemons
