// The fig3/fig5 aggregate-trace scenario at the size the planner's
// sync-round gates were recorded at: the Frost preset, 4 nodes x 8 tasks per
// node, seed 1; fig3 on the vanilla kernel, fig5 on the prototype kernel
// with the paper's co-scheduler; one loop of `calls` Allreduces after a 6 s
// warmup. The config runs serially until the test sets `parallel`.
#pragma once

#include "apps/aggregate_trace.hpp"
#include "core/presets.hpp"
#include "core/simulation.hpp"

namespace pasched::testutil {

struct FigScenario {
  core::SimulationConfig cfg;
  mpi::WorkloadFactory factory;
};

inline FigScenario fig_scenario(bool fig5, int calls) {
  FigScenario s;
  s.cfg.cluster = cluster::presets::frost(4);
  s.cfg.cluster.seed = 1;
  s.cfg.cluster.node.tunables =
      fig5 ? core::prototype_kernel() : core::vanilla_kernel();
  s.cfg.job.ntasks = 4 * 8;
  s.cfg.job.tasks_per_node = 8;
  s.cfg.job.seed = 1;
  s.cfg.use_coscheduler = fig5;
  s.cfg.cosched = core::paper_cosched();
  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = calls;
  at.warmup = sim::Duration::sec(6);
  s.factory = apps::aggregate_trace(at);
  return s;
}

}  // namespace pasched::testutil
