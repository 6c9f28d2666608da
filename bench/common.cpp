#include "common.hpp"

#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "analysis/lint.hpp"
#include "apps/aggregate_trace.hpp"
#include "apps/channels.hpp"
#include "mpi/collectives.hpp"
#include "util/stats.hpp"

namespace bench {

using namespace pasched;

RunResult run_aggregate(const RunSpec& spec) {
  core::SimulationConfig cfg;
  cfg.cluster = cluster::presets::frost(spec.nodes);
  cfg.cluster.seed = spec.seed;
  cfg.cluster.node.tunables = spec.tunables;
  cfg.cluster.node.daemons.intensity = spec.daemon_intensity;
  cfg.cluster.node.daemons.cron_first_due = spec.cron_first_due;
  cfg.cluster.node.max_clock_offset = spec.max_clock_offset;
  cfg.cluster.node.install_daemons = spec.install_daemons;
  cfg.job.ntasks = spec.nodes * spec.tasks_per_node;
  cfg.job.tasks_per_node = spec.tasks_per_node;
  cfg.job.mpi = spec.mpi;
  cfg.job.seed = spec.seed * 7919 + 13;
  cfg.use_coscheduler = spec.use_cosched;
  cfg.cosched = spec.cosched;

  if (spec.lint_before_run) {
    analysis::LintConfig lc;
    lc.tunables = spec.tunables;
    if (spec.use_cosched) lc.cosched = spec.cosched;
    lc.daemons = cfg.cluster.node.daemons;
    lc.daemons_installed = spec.install_daemons;
    lc.mpi = spec.mpi;
    const std::vector<analysis::Diagnostic> diags = analysis::lint(lc);
    for (const analysis::Diagnostic& d : diags)
      std::cerr << "lint: " << d.str() << "\n";
    if (analysis::any_errors(diags))
      throw std::logic_error("bench RunSpec failed pasched-lint with ERRORs");
  }

  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = spec.calls;
  at.inter_call_compute = spec.inter_call_compute;
  at.alg = spec.mpi.allreduce_alg;
  at.warmup = spec.warmup;

  core::Simulation sim(cfg, apps::aggregate_trace(at));
  const auto sres = sim.run();

  const auto& ch = sim.job().channel(apps::kChanAllreduce);
  RunResult r;
  r.completed = sres.completed;
  r.procs = cfg.job.ntasks;
  r.elapsed_s = sres.elapsed.to_seconds();
  r.recorded = ch.recorded_us;
  if (!r.recorded.empty()) {
    const util::Summary s(r.recorded);
    r.mean_us = s.mean();
    r.median_us = s.median();
    r.min_us = s.min();
    r.max_us = s.max();
    r.p99_us = s.percentile(99);
    r.cv = s.cv();
    std::size_t outliers = 0;
    for (const double x : r.recorded)
      if (x > 2.0 * r.median_us) ++outliers;
    r.outlier_frac =
        static_cast<double>(outliers) / static_cast<double>(r.recorded.size());
    const auto& sorted = s.sorted();
    const std::size_t k = std::min<std::size_t>(20, sorted.size());
    double tail = 0;
    for (std::size_t i = sorted.size() - k; i < sorted.size(); ++i)
      tail += sorted[i];
    r.tail20_us = k ? tail / static_cast<double>(k) : 0.0;
  }
  r.ideal_us =
      mpi::ideal_allreduce(cfg.job.ntasks, spec.mpi,
                           cfg.cluster.fabric.inter_node_latency,
                           cfg.cluster.fabric.per_byte, 8)
          .to_us();
  return r;
}

std::vector<RunResult> run_seeds(RunSpec spec, int seeds) {
  std::vector<RunResult> out;
  for (int s = 0; s < seeds; ++s) {
    spec.seed = spec.seed * 31 + static_cast<std::uint64_t>(s) + 1;
    out.push_back(run_aggregate(spec));
  }
  return out;
}

double mean_field(const std::vector<RunResult>& rs, double RunResult::* field) {
  if (rs.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : rs) sum += r.*field;
  return sum / static_cast<double>(rs.size());
}

std::vector<int> default_proc_sweep(bool full) {
  if (full) return {32, 64, 128, 256, 512, 768, 944, 1024, 1280, 1536};
  return {32, 64, 128, 256, 512, 944};
}

namespace {
std::string shell_line(const char* cmd) {
  std::FILE* p = ::popen(cmd, "r");
  if (p == nullptr) return {};
  char buf[64] = {};
  std::string out;
  if (std::fgets(buf, sizeof buf, p) != nullptr) out = buf;
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}
}  // namespace

std::string git_commit() {
  const std::string head = shell_line("git rev-parse --short HEAD 2>/dev/null");
  if (head.empty()) return "unknown";
  const bool dirty =
      !shell_line("git status --porcelain --untracked-files=no 2>/dev/null")
           .empty();
  return head + (dirty ? "-dirty" : "");
}

void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "==============================================================\n";
}

}  // namespace bench
