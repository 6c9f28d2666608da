#include "core/simulation.hpp"

#include <iostream>

#include "net/fabric.hpp"
#include "util/assert.hpp"

namespace pasched::core {

Simulation::Simulation(SimulationConfig cfg, const mpi::WorkloadFactory& factory)
    : cfg_(std::move(cfg)) {
  if (cfg_.parallel > 0) {
    PASCHED_EXPECTS_MSG(
        cfg_.cluster.fabric.link_bandwidth == 0.0,
        "link_bandwidth contention is sequential-only; unset it or drop "
        "--parallel");
    const sim::Duration global = net::guaranteed_lookahead(cfg_.cluster.fabric);
    sharded_ =
        std::make_unique<sim::ShardedEngine>(cfg_.cluster.nodes, global);
    // Per-pair lookahead matrix — the runtime consumption of pasched-scale's
    // certificate, built by the same rule (scale::RunMonitor cross-checks
    // the two at monitor install, so a divergence cannot pass an audited
    // run).
    sharded_->set_pair_lookahead(
        net::pair_lookahead(cfg_.cluster.fabric, cfg_.cluster.nodes));
    cluster_ = std::make_unique<cluster::Cluster>(*sharded_, cfg_.cluster);
  } else {
    engine_ = std::make_unique<sim::Engine>();
    cluster_ = std::make_unique<cluster::Cluster>(*engine_, cfg_.cluster);
  }
  job_ = std::make_unique<mpi::Job>(*cluster_, cfg_.job, factory);

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
  job_->launch();
  if (sharded_ != nullptr) {
    sharded_->run_until(sharded_->engine_of(0).now() + cfg_.horizon,
                        cfg_.parallel);
  } else {
    // srclint-ok(PSL401): the run driver owns the classic-mode engine; this
    // is the one place a single-engine run is advanced.
    engine_->run_until(engine_->now() + cfg_.horizon);
  }
  SimulationResult r;
  r.completed = job_->complete();
  r.elapsed = r.completed ? job_->elapsed() : cfg_.horizon;
  r.events = sharded_ != nullptr ? sharded_->events_processed()
                                 : engine_->events_processed();
  if (r.completed) {
    // The classic engine stops with now() at the completion event's time, so
    // its before-now counter is exactly "events with t < T_c"; partitioned
    // runs subtract the final window's tail at or past T_c.
    r.events_at_completion =
        sharded_ != nullptr
            ? sharded_->events_processed_before(job_->completion_time())
            : engine_->events_processed_before_now();
  } else {
    r.events_at_completion = r.events;
  }
  r.any_node_evicted = cluster_->any_node_evicted();
  return r;
}

}  // namespace pasched::core
