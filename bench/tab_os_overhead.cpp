// §2's measured baseline: "typical operating system and daemon activity
// consumes 0.2% to 1.1% of each CPU for large dedicated RS/6000 SP systems
// with 16 processors per node" [Jones03]. We run idle nodes (no job) for a
// stretch of simulated time and account CPU by class.
//
//   ./tab_os_overhead [--nodes=4] [--seconds=300]
#include <iostream>

#include "cluster/cluster.hpp"
#include "common.hpp"
#include "core/presets.hpp"
#include "net/fabric.hpp"
#include "sim/shard.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace pasched;

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const int nodes = static_cast<int>(flags.get_int("nodes", 4));
  const int seconds = static_cast<int>(flags.get_int("seconds", 300));

  bench::banner("OS / daemon background load on idle 16-way nodes",
                "SC'03 Jones et al., §2 (0.2%–1.1% of each CPU, [Jones03])");

  cluster::ClusterConfig ccfg = cluster::presets::frost(nodes);
  ccfg.seed = 99;
  // The serial executor: one shard holds every node.
  sim::ShardedEngine serial(sim::ShardMap(nodes, 1),
                            net::guaranteed_lookahead(ccfg.fabric));
  cluster::Cluster cluster(serial, ccfg);
  cluster.start();
  serial.run_until(serial.engine_of(0).now() + sim::Duration::sec(seconds), 1);

  const double total_cpu_s =
      static_cast<double>(seconds) * 16.0;  // per node CPU-seconds available
  util::Table t({"node", "daemon %/cpu", "tick %/cpu", "total %/cpu",
                 "activations", "in paper band"});
  double worst = 0, best = 1e9;
  for (int n = 0; n < nodes; ++n) {
    const auto& acct = cluster.node(n).kernel().accounting();
    const double daemon_pct =
        100.0 * acct.of(kern::ThreadClass::Daemon).to_seconds() / total_cpu_s;
    const double tick_pct = 100.0 * acct.tick_cpu.to_seconds() / total_cpu_s;
    const double total = daemon_pct + tick_pct;
    worst = std::max(worst, total);
    best = std::min(best, total);
    std::uint64_t acts = 0;
    for (const auto& d : cluster.node(n).daemons()->daemons())
      acts += d->stats().activations;
    t.add_row({util::Table::cell(static_cast<long long>(n)),
               util::Table::cell(daemon_pct, 3), util::Table::cell(tick_pct, 3),
               util::Table::cell(total, 3),
               util::Table::cell(static_cast<long long>(acts)),
               (total >= 0.2 && total <= 1.1) ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\nrange across nodes: " << util::format_double(best, 3)
            << "% .. " << util::format_double(worst, 3)
            << "% of each CPU (paper band: 0.2% .. 1.1%)\n";
  return 0;
}
