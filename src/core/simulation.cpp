#include "core/simulation.hpp"

#include <algorithm>
#include <bit>
#include <iostream>
#include <vector>

#include "net/fabric.hpp"
#include "util/assert.hpp"

namespace pasched::core {

namespace {

// A hardware collective's broadcast deposits one event per task into each
// block's ring from shard 0 within one window, and the block's tasks send
// their contributions to shard 0 the same way: size every ring for the
// largest block's task count (and never below the default 256), so the
// fan-out does not spill into the mutex-guarded overflow lane.
std::size_t ring_capacity(sim::ShardedEngine& sharded, mpi::Job& job) {
  std::vector<std::size_t> tasks(
      static_cast<std::size_t>(sharded.partitions()), 0);
  for (int rank = 0; rank < job.ntasks(); ++rank)
    ++tasks[static_cast<std::size_t>(
        sharded.shard_of_node(job.task(rank).node().id()))];
  return std::bit_ceil(std::max<std::size_t>(
      256, *std::max_element(tasks.begin(), tasks.end())));
}

}  // namespace

Simulation::Simulation(SimulationConfig cfg, const mpi::WorkloadFactory& factory)
    : cfg_(std::move(cfg)) {
  PASCHED_EXPECTS_MSG(
      cfg_.parallel == 0 || cfg_.cluster.fabric.link_bandwidth == 0.0,
      "link_bandwidth contention is sequential-only; unset it or drop "
      "--parallel");
  // A serial run is the one-shard case of the partitioned executor.
  const sim::ShardMap map = cfg_.parallel > 0
                                ? sim::ShardMap(cfg_.cluster.nodes)
                                : sim::ShardMap(cfg_.cluster.nodes, 1);
  // Validated builds check every cross-shard post against the lookahead
  // (ShardedEngine::post).
  sharded_ = std::make_unique<sim::ShardedEngine>(
      map, net::guaranteed_lookahead(cfg_.cluster.fabric));
  cluster_ = std::make_unique<cluster::Cluster>(*sharded_, cfg_.cluster);
  // Windows are planned on when each shard can next post, which only the
  // kernels know (ignored by a one-shard run).
  cluster::Cluster* cluster = cluster_.get();
  sharded_->set_output_bound([cluster](int shard, sim::Time floor) {
    return cluster->earliest_post(shard, floor);
  });
  job_ = std::make_unique<mpi::Job>(*cluster_, cfg_.job, factory);
  sharded_->set_ring_capacity(ring_capacity(*sharded_, *job_));

  if (!cfg_.mp_priority.empty()) {
    // MP_PRIORITY flow: the administrative file decides admission (§4).
    PASCHED_EXPECTS_MSG(cfg_.admin.has_value(),
                        "MP_PRIORITY set but no poe.priority records given");
    admission_ = cfg_.admin->match(cfg_.mp_priority, cfg_.uid);
    if (admission_.has_value()) {
      cfg_.use_coscheduler = true;
      cfg_.cosched.favored = admission_->favored;
      cfg_.cosched.unfavored = admission_->unfavored;
      cfg_.cosched.period = admission_->period;
      cfg_.cosched.duty = admission_->duty;
    } else {
      // "An attention message is printed and the job runs as if no priority
      // had been requested."
      std::cerr << "ATTENTION: no poe.priority record matches class '"
                << cfg_.mp_priority << "' for uid " << cfg_.uid
                << "; job will not be co-scheduled\n";
      cfg_.use_coscheduler = false;
    }
  }

  if (cfg_.use_coscheduler) {
    cosched_ = std::make_unique<CoschedManager>(*cluster_, cfg_.cosched);
    job_->set_hook(cosched_.get());
  }
}

Simulation::~Simulation() = default;

SimulationResult Simulation::run() {
  PASCHED_EXPECTS_MSG(!ran_, "Simulation::run called twice");
  ran_ = true;
  cluster_->start();
  // Each shard launches its own tasks in the run's prologue, before any of
  // its events fire (in parallel when several workers run); only the hook's
  // cross-node setup runs here.
  job_->prepare_launch();
  mpi::Job* job = job_.get();
  sharded_->set_prologue([job](int shard) { job->launch_shard(shard); });
  sharded_->run_until(sharded_->engine_of(0).now() + cfg_.horizon,
                      cfg_.parallel);
  SimulationResult r;
  r.completed = job_->complete();
  r.elapsed = r.completed ? job_->elapsed() : cfg_.horizon;
  r.events = sharded_->events_processed();
  r.events_at_completion =
      r.completed ? sharded_->events_processed_before(job_->completion_time())
                  : r.events;
  r.any_node_evicted = cluster_->any_node_evicted();
  return r;
}

}  // namespace pasched::core
