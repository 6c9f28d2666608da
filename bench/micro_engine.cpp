// micro_engine: single-shard event-throughput microbench — the baseline
// for ROADMAP open item 2 (event-engine hot-path work).
//
// Modes run the same event budget (K concurrent self-rescheduling event
// chains advancing in fixed steps until ~N total events fire):
//
//   legacy      a bare sim::Engine drives the chains directly
//   parallel1   the same chains run inside a one-shard ShardedEngine
//               under run_until(workers=1) — the serial executor every
//               parallel = 0 simulation uses, which skips the window
//               machinery, so this row prices the ShardedEngine wrapper
//   parallel2/4/8  the chains hop shard-to-shard through post() on an
//               N-node ShardedEngine with N workers — every event crosses
//               a pair ring and rides the horizon chain, so these
//               rows price the cross-shard path under real thread
//               parallelism (events/sec-per-core is the honest column on
//               an oversubscribed box)
//   hold1500/hold12000  the classic hold model on a bare sim::Engine:
//               N events pending (the e2e workloads' mean pending set is
//               1.5 k serially, 11 k at the 512-node size); each fire
//               re-arms itself a random increment ahead, and one fire in
//               49 also cancels and re-arms a random other event, so 2 %
//               of schedules are cancelled. The 64 chains above keep the
//               queue tiny; these rows price the queue itself.
//
// legacy and parallel1 fire the same events in the same order, so their
// ratio isolates what the one-shard executor adds per event. Results are
// written as JSON to BENCH_engine.json (schema documented in README.md)
// so successive PRs can diff events/sec across engine changes; the JSON is
// stamped with the git commit, build type, validation flag, compiler,
// nproc and hardware_concurrency, and each row
// carries speedup_valid (false when the row wants more workers than the
// machine has hardware threads).
//
//   ./micro_engine [--chains=K] [--events=N] [--repeats=R]
//       [--spacing-ns=S] [--out=FILE]
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "alloc/ledger.hpp"
#include "check/check.hpp"
#include "common.hpp"
#include "sim/engine.hpp"
#include "sim/shard.hpp"
#include "util/flags.hpp"

using namespace pasched;

namespace {

#ifndef MICRO_ENGINE_BUILD_TYPE
#define MICRO_ENGINE_BUILD_TYPE "unknown"
#endif

/// CPUs this process may run on.
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

struct Config {
  int chains = 64;
  std::uint64_t events = 1'000'000;
  int repeats = 5;
  std::int64_t spacing_ns = 1'000;
  std::string out = "BENCH_engine.json";
};

struct ModeResult {
  std::string mode;
  std::uint64_t events = 0;
  /// Worker threads the mode runs (legacy/parallel1/hold = 1).
  int cores = 1;
  /// Events pending in the engine(s) throughout the run.
  std::size_t pending = 0;
  /// False when the row wants more workers than hardware threads — its
  /// absolute throughput then measures oversubscription.
  bool speedup_valid = true;
  std::vector<double> runs_events_per_sec;
  double best = 0;
  double median = 0;

  [[nodiscard]] double median_per_core() const {
    return cores > 0 ? median / cores : 0.0;
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One self-rescheduling chain step. Trivially copyable and well inside
/// Engine::Callback's inline buffer, so re-arming copies a few words into
/// the event slot — no per-event heap traffic from the workload itself (a
/// captured std::function here used to malloc on every single event,
/// drowning the engine cost this bench exists to measure).
struct ChainTick {
  sim::Engine* e;
  std::uint64_t* fired;
  std::uint64_t chains;
  std::uint64_t budget;
  sim::Duration spacing;

  void operator()() const {
    if (++*fired + chains <= budget) e->schedule_after(spacing, *this);
  }
};
static_assert(std::is_trivially_copyable_v<ChainTick> &&
                  sizeof(ChainTick) <= 48,
              "ChainTick must stay inline in Engine::Callback");

/// Arms `chains` self-rescheduling chains on `e`; each fire bumps the
/// shared counter and re-arms `spacing` later while budget remains, so
/// both modes execute the same event stream. Returns the fired count.
std::uint64_t drive_chains(sim::Engine& e, const Config& cfg,
                           const std::function<void(sim::Time)>& run_to) {
  std::uint64_t fired = 0;
  const sim::Duration spacing = sim::Duration::ns(cfg.spacing_ns);
  const ChainTick tick{&e, &fired, static_cast<std::uint64_t>(cfg.chains),
                       cfg.events, spacing};
  for (int c = 0; c < cfg.chains; ++c) e.schedule_at(e.now() + spacing, tick);
  // Horizon covering every re-arm: events/chains steps plus slack.
  const std::int64_t steps = static_cast<std::int64_t>(
      cfg.events / static_cast<std::uint64_t>(cfg.chains)) + 2;
  run_to(e.now() + spacing * steps);
  return fired;
}

double run_legacy_once(const Config& cfg) {
  sim::Engine e;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t fired =
      drive_chains(e, cfg, [&](sim::Time until) { e.run_until(until); });
  return static_cast<double>(fired) / seconds_since(t0);
}

double run_parallel1_once(const Config& cfg) {
  // One node => one shard: the same event stream on the serial
  // executor, which runs the engine straight to each deadline.
  sim::ShardedEngine sh(sim::ShardMap(1), sim::Duration::us(10));
  sim::Engine& e = sh.engine_of(0);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t fired = drive_chains(
      e, cfg, [&](sim::Time until) { sh.run_until(until, 1); });
  return static_cast<double>(fired) / seconds_since(t0);
}

/// The hold model's shared state: one EventId per pending event, so a
/// fire can cancel and re-arm another one, and a xorshift stream for the
/// increments and the cancel victims.
struct HoldState {
  sim::Engine* e;
  std::vector<sim::EventId> ids;
  std::uint64_t rng;
  std::uint64_t fired;
  std::uint64_t budget;
  std::uint64_t max_increment_ns;

  std::uint64_t next() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }
  void arm(std::uint32_t k);
};

/// One hold event: re-arms its own slot k, and every 49th fire also
/// cancels and re-arms a random other slot.
struct HoldTick {
  HoldState* h;
  std::uint32_t k;

  void operator()() const {
    if (++h->fired >= h->budget) {
      h->e->stop();
      return;
    }
    h->arm(k);
    if (h->fired % 49 == 0) {
      const auto victim =
          static_cast<std::uint32_t>(h->next() % h->ids.size());
      h->e->cancel(h->ids[victim]);
      h->arm(victim);
    }
  }
};
static_assert(std::is_trivially_copyable_v<HoldTick> &&
                  sizeof(HoldTick) <= 48,
              "HoldTick must stay inline in Engine::Callback");

void HoldState::arm(std::uint32_t k) {
  const auto dt = static_cast<std::int64_t>(1 + next() % max_increment_ns);
  ids[k] = e->schedule_after(sim::Duration::ns(dt), HoldTick{this, k});
}

/// Fills the queue with `pending` events, then times the hold loop until
/// cfg.events fire. Increments are uniform in [1, 2 * pending * spacing],
/// so the queue holds its size.
double run_hold_once(const Config& cfg, std::size_t pending) {
  sim::Engine e;
  HoldState h{&e, std::vector<sim::EventId>(pending), 0x9e3779b97f4a7c15ULL,
              0, cfg.events,
              2 * pending * static_cast<std::uint64_t>(cfg.spacing_ns)};
  for (std::uint32_t k = 0; k < pending; ++k) h.arm(k);
  const auto t0 = std::chrono::steady_clock::now();
  e.run();
  return static_cast<double>(h.fired) / seconds_since(t0);
}

/// Cross-shard mode: the chains hop shard s -> s+1 (mod nodes) through
/// post(), one hop per spacing, run by `nodes` workers. Every event
/// crosses a pair ring and is gated by the horizon chain — the
/// partitioned core's cross-shard path under real thread parallelism. The
/// lookahead equals the hop spacing, so each chained window carries one
/// hop per chain.
double run_parallelN_once(const Config& cfg, int nodes) {
  const sim::Duration spacing = sim::Duration::ns(cfg.spacing_ns);
  sim::ShardedEngine sh(sim::ShardMap::identity(nodes), spacing);
  std::atomic<std::uint64_t> fired{0};
  const std::uint64_t budget = cfg.events;
  const auto chains = static_cast<std::uint64_t>(cfg.chains);
  std::function<void(int)> hop = [&](int s) {
    if (fired.fetch_add(1, std::memory_order_relaxed) + 1 + chains > budget)
      return;
    const int dst = (s + 1) % nodes;
    sh.post(s, dst, sh.engine_of(s).now() + spacing,
            [&hop, dst] { hop(dst); });
  };
  for (int c = 0; c < cfg.chains; ++c) {
    const int s = c % nodes;
    sim::Engine& e = sh.engine_of(s);
    e.schedule_at(e.now() + spacing, [&hop, s] { hop(s); });
  }
  const std::int64_t steps = static_cast<std::int64_t>(
      cfg.events / static_cast<std::uint64_t>(cfg.chains)) + 2;
  const auto t0 = std::chrono::steady_clock::now();
  sh.run_until(sh.engine_of(0).now() + spacing * (steps + 2), nodes);
  return static_cast<double>(fired.load(std::memory_order_relaxed)) /
         seconds_since(t0);
}

/// Allocation columns for the engine hot path, from one instrumented
/// legacy pass with the alloc ledger counting (throughput is NOT measured
/// on this pass — counting perturbs it). `hot_window_allocs` sums
/// hot-phase allocations on Core (engine bookkeeping) sites: the event
/// slab / scratch-reuse discipline holds it at zero, and the nightly CI
/// gate fails if a regression puts malloc back on the event path.
struct AllocProbe {
  bool enabled = false;
  std::uint64_t events = 0;
  std::uint64_t hot_window_allocs = 0;
  std::uint64_t total_allocs = 0;
  std::uint64_t total_bytes = 0;

  [[nodiscard]] double allocs_per_event() const {
    return events > 0 ? static_cast<double>(total_allocs) /
                            static_cast<double>(events)
                      : 0.0;
  }
  [[nodiscard]] double bytes_per_event() const {
    return events > 0 ? static_cast<double>(total_bytes) /
                            static_cast<double>(events)
                      : 0.0;
  }
};

AllocProbe run_alloc_probe(const Config& cfg) {
  AllocProbe p;
  if (!alloc::Ledger::available()) return p;
  alloc::Ledger ledger;
  sim::Engine e;
  ledger.reset();
  ledger.install();
  p.events = drive_chains(e, cfg,
                          [&](sim::Time until) { e.run_until(until); });
  ledger.remove();
  const alloc::AllocLedgerReport rep = ledger.report();
  p.enabled = rep.enabled;
  p.hot_window_allocs = rep.hot_window_allocs;
  p.total_allocs = rep.total_allocs;
  p.total_bytes = rep.total_bytes;
  ledger.reset();
  return p;
}

ModeResult measure(const std::string& mode, const Config& cfg, int cores,
                   std::size_t pending, const std::function<double()>& once) {
  ModeResult r;
  r.mode = mode;
  r.events = cfg.events;
  r.cores = cores;
  r.pending = pending;
  const unsigned hw = std::thread::hardware_concurrency();
  r.speedup_valid = hw > 0 && static_cast<unsigned>(cores) <= hw;
  if (!r.speedup_valid)
    std::cerr << "micro_engine: WARNING: mode " << mode << " wants " << cores
              << " workers but the machine has " << hw
              << " hardware threads; its speedup column measures "
                 "oversubscription, not the partitioned core\n";
  for (int i = 0; i < cfg.repeats; ++i) {
    const double eps = once();
    r.runs_events_per_sec.push_back(eps);
    std::cout << "  " << mode << " run " << (i + 1) << "/" << cfg.repeats
              << ": " << static_cast<std::uint64_t>(eps) << " events/s\n";
  }
  std::vector<double> sorted = r.runs_events_per_sec;
  std::sort(sorted.begin(), sorted.end());
  r.best = sorted.back();
  r.median = sorted[sorted.size() / 2];
  return r;
}

void emit_mode(std::ostream& os, const ModeResult& r, bool last) {
  os << "    {\"mode\": \"" << r.mode << "\", \"events\": " << r.events
     << ", \"cores\": " << r.cores << ", \"pending\": " << r.pending
     << ", \"speedup_valid\": " << (r.speedup_valid ? "true" : "false")
     << ", \"best_events_per_sec\": " << static_cast<std::uint64_t>(r.best)
     << ", \"median_events_per_sec\": " << static_cast<std::uint64_t>(r.median)
     << ", \"median_events_per_sec_per_core\": "
     << static_cast<std::uint64_t>(r.median_per_core())
     << ", \"runs\": [";
  for (std::size_t i = 0; i < r.runs_events_per_sec.size(); ++i)
    os << (i ? ", " : "")
       << static_cast<std::uint64_t>(r.runs_events_per_sec[i]);
  os << "]}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto typos =
      flags.unknown({"chains", "events", "repeats", "spacing-ns", "out"});
  if (!typos.empty()) {
    std::cerr << "micro_engine: unknown flag(s):";
    for (const std::string& t : typos) std::cerr << " --" << t;
    std::cerr << "\nusage: micro_engine [--chains=K] [--events=N]"
                 " [--repeats=R] [--spacing-ns=S] [--out=FILE]\n";
    return 64;
  }
  Config cfg;
  cfg.chains = static_cast<int>(flags.get_int("chains", cfg.chains));
  cfg.events = static_cast<std::uint64_t>(
      flags.get_int("events", static_cast<long long>(cfg.events)));
  cfg.repeats = static_cast<int>(flags.get_int("repeats", cfg.repeats));
  cfg.spacing_ns = flags.get_int("spacing-ns", cfg.spacing_ns);
  cfg.out = flags.get("out", cfg.out);
  if (cfg.chains < 1 || cfg.events < static_cast<std::uint64_t>(cfg.chains) ||
      cfg.repeats < 1 || cfg.spacing_ns < 1) {
    std::cerr << "micro_engine: need chains >= 1, events >= chains, "
                 "repeats >= 1, spacing-ns >= 1\n";
    return 64;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "micro_engine: " << cfg.chains << " chains, " << cfg.events
            << " events/run, " << cfg.repeats
            << " repeats, hardware_concurrency=" << hw << "\n";
  const auto chains = static_cast<std::size_t>(cfg.chains);
  std::vector<ModeResult> modes;
  modes.push_back(measure("legacy", cfg, 1, chains,
                          [&cfg] { return run_legacy_once(cfg); }));
  modes.push_back(measure("parallel1", cfg, 1, chains,
                          [&cfg] { return run_parallel1_once(cfg); }));
  for (const int n : {2, 4, 8})
    modes.push_back(measure("parallel" + std::to_string(n), cfg, n, chains,
                            [&cfg, n] { return run_parallelN_once(cfg, n); }));
  for (const std::size_t n : {std::size_t{1500}, std::size_t{12000}})
    modes.push_back(measure("hold" + std::to_string(n), cfg, 1, n,
                            [&cfg, n] { return run_hold_once(cfg, n); }));
  const ModeResult& legacy = modes[0];
  const ModeResult& par1 = modes[1];
  const double ratio = legacy.median > 0 ? par1.median / legacy.median : 0;

  const AllocProbe ap = run_alloc_probe(cfg);
  if (ap.enabled)
    std::cout << "alloc probe: " << ap.events << " events, "
              << ap.total_allocs << " allocs (" << ap.total_bytes
              << " B) total, hot_window_allocs=" << ap.hot_window_allocs
              << "\n";
  else
    std::cout << "alloc probe: skipped (ledger unavailable under "
                 "-DPASCHED_VALIDATE=OFF)\n";

  std::cout << "\nmode        cores  median_ev/s  ev/s-per-core  valid\n";
  for (const ModeResult& m : modes)
    std::cout << m.mode
              << std::string(m.mode.size() < 12 ? 12 - m.mode.size() : 1, ' ')
              << m.cores << "      " << static_cast<std::uint64_t>(m.median)
              << "      " << static_cast<std::uint64_t>(m.median_per_core())
              << "      " << (m.speedup_valid ? "yes" : "OVERSUBSCRIBED")
              << "\n";

  std::ostringstream os;
  os << "{\n  \"bench\": \"micro_engine\",\n"
     << "  \"git_commit\": \"" << bench::git_commit() << "\",\n"
     << "  \"build_type\": \"" << MICRO_ENGINE_BUILD_TYPE << "\",\n"
     << "  \"validate\": " << (PASCHED_VALIDATE_ENABLED ? "true" : "false")
     << ",\n"
     << "  \"compiler\": \"" << __VERSION__ << "\",\n"
     << "  \"nproc\": " << nproc() << ",\n"
     << "  \"hardware_concurrency\": " << hw << ",\n"
     << "  \"speedup_valid_note\": \"rows with cores > hardware_concurrency "
        "measure oversubscription; compare median_events_per_sec_per_core "
        "only across speedup_valid rows\",\n"
     << "  \"config\": {\"chains\": " << cfg.chains
     << ", \"events\": " << cfg.events << ", \"repeats\": " << cfg.repeats
     << ", \"spacing_ns\": " << cfg.spacing_ns << "},\n"
     << "  \"modes\": [\n";
  for (std::size_t i = 0; i < modes.size(); ++i)
    emit_mode(os, modes[i], i + 1 == modes.size());
  os << "  ],\n  \"parallel1_over_legacy_median\": " << ratio << ",\n"
     << "  \"alloc\": {\"ledger_enabled\": "
     << (ap.enabled ? "true" : "false") << ", \"events\": " << ap.events
     << ", \"allocs_per_event\": " << ap.allocs_per_event()
     << ", \"bytes_per_event\": " << ap.bytes_per_event()
     << ", \"hot_window_allocs\": " << ap.hot_window_allocs << "}\n}\n";
  std::ofstream out(cfg.out);
  out << os.str();
  std::cout << os.str() << "written to " << cfg.out << "\n";
  return 0;
}
