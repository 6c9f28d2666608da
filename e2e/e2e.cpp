// End-to-end benchmark: four paper workloads, each simulated in classic mode
// (parallel=0) and partitioned (parallel=P, P = min(4, nproc - 1)).
//
// Every (workload, mode, repeat) runs in a fresh child process — the parent
// re-executes itself with --child — so peak RSS belongs to that one run.
// Children run one at a time: a repeat runs the serial child, the parallel
// child, then any further serial children its workload asks for (asci_8192's
// serial child is cheap next to its parallel one). The parent prints the
// median of every metric as `workload metric value unit`, writes medians with
// p25/p75/n to a JSON file, and exits 1 if any run failed. Host times are
// scaled by a host-speed probe the parent runs around every child (see
// "Host-speed probe" below), so that other tenants' load on the host cancels.
//
// A run fails when it throws, hits the horizon, or fails verification. Each
// run fingerprints its simulated history: elapsed ns, events below
// completion, and an FNV-1a hash of every channel's span count and of the
// recorded rank's span durations. Serial and parallel must agree, and at a
// workload's pinned seed both must equal golden.txt.
//
// --trace adds one traced run per mode. It observes through public seams
// only: a kern::SchedObserver counts ticks and idle ticks, and a
// sim::ShardMonitor splits every worker's time into exec, horizon wait, drain
// and round spans. Timed runs never install an observer.
//
//   e2e [--workload=NAME] [--seed=N] [--seconds=S] [--trace] [--smoke]
//       [--goldens=FILE] [--write-goldens]
//
// Without --seconds every workload runs three repeats. --seconds runs one
// repeat of each workload and keeps adding more while another fits in S
// seconds; for a single --workload the output ends with one JSON result
// line. The medians go
// to BENCH_e2e.json (BENCH_e2e_smoke.json for --smoke) in the current
// directory. Timing runs refuse (exit 2) unless the build is Release with
// PASCHED_VALIDATE=OFF; --smoke (4-node sizes, any build) and --write-goldens
// do not time.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/ale3d_proxy.hpp"
#include "apps/aggregate_trace.hpp"
#include "apps/channels.hpp"
#include "core/presets.hpp"
#include "core/simulation.hpp"
#include "mpi/task.hpp"
#include "util/aligned.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

extern char** environ;

using namespace pasched;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kExitUsage = 64;
constexpr int kExitWrongBuild = 2;
constexpr auto kChildTimeout = std::chrono::seconds(150);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string_view name;
  /// Seeds the simulated machine: node clock offsets, tick and daemon
  /// phases, fabric jitter. It stays fixed because on the vanilla kernel
  /// these phases alone move simulated time by up to 25 %, and the parallel
  /// engine's work with it; --seed varies the job. Also the default --seed,
  /// and the one golden.txt pins.
  std::uint64_t pinned_seed;
  int nodes;         // 16 tasks each; smoke runs use 4 nodes
  int length;        // aggregate_trace calls, or ALE3D timesteps
  int smoke_length;
  int warmup_ms;     // aggregate_trace's untimed lead-in
  /// Serial children per repeat. asci_8192's takes a twelfth of the time of
  /// its parallel one, and a serial child's time varies by up to 10 % from
  /// process to process, so a median of six of them moves between runs.
  int serial_runs;
};

// Why these four (the README has the measured details): fig5_1024 is the
// densest event stream with few kernel ticks; fig3_1024 is the same job with
// the kernel layer dominant and the most coalesced quiet windows; asci_8192
// has 513 shards, so per-peer and per-shard costs dominate; ale3d_944 is a
// sparse stream of 32 KB halos and I/O-daemon traffic on idle CPUs. Sizes
// are trimmed so that a timed run repeats each pair many times.
constexpr std::array<Workload, 4> kWorkloads{
    {{"fig5_1024", 6024, 64, 500, 100, 500, 1},
     {"fig3_1024", 2024, 64, 150, 100, 500, 1},
     {"asci_8192", 8192, 512, 3, 10, 250, 3},
     {"ale3d_944", 944, 59, 40, 20, 0, 1}}};

struct RunInputs {
  core::SimulationConfig cfg;
  mpi::WorkloadFactory factory;
};

core::SimulationConfig frost_job(int nodes, std::uint64_t machine_seed,
                                 std::uint64_t job_seed) {
  core::SimulationConfig cfg;
  cfg.cluster = cluster::presets::frost(nodes);
  cfg.cluster.seed = machine_seed;
  cfg.job.ntasks = nodes * 16;
  cfg.job.tasks_per_node = 16;
  cfg.job.seed = job_seed;
  return cfg;
}

/// aggregate_trace (§5.1) after an untimed lead-in. `fig5` selects the
/// Figure 5 setup (prototype kernel, paper co-scheduler, MPI timer threads
/// parked at a 400 s polling interval); otherwise Figure 3's vanilla kernel
/// without a co-scheduler. The job seed derives as in bench::run_aggregate.
RunInputs aggregate(bool fig5, int nodes, int calls, int warmup_ms,
                    std::uint64_t machine, std::uint64_t seed) {
  RunInputs in{frost_job(nodes, machine, seed * 7919 + 13), {}};
  if (fig5) {
    in.cfg.cluster.node.tunables = core::prototype_kernel();
    in.cfg.use_coscheduler = true;
    in.cfg.cosched = core::paper_cosched();
    in.cfg.job.mpi.polling_interval = sim::Duration::sec(400);
  } else {
    in.cfg.cluster.node.tunables = core::vanilla_kernel();
  }
  apps::AggregateTraceConfig at;
  at.loops = 1;
  at.calls_per_loop = calls;
  at.alg = in.cfg.job.mpi.allreduce_alg;
  at.warmup = sim::Duration::ms(warmup_ms);
  in.factory = apps::aggregate_trace(at);
  return in;
}

/// The tuned ALE3D configuration of §5.3 (bench/tab_ale3d mode 2): favored
/// priority just above mmfsd plus the detach/attach escape around I/O.
RunInputs ale3d(int nodes, int steps, std::uint64_t machine,
                std::uint64_t seed) {
  RunInputs in{frost_job(nodes, machine, seed * 17 + 3), {}};
  in.cfg.horizon = sim::Duration::sec(1800);
  in.cfg.cluster.node.tunables = core::prototype_kernel();
  in.cfg.use_coscheduler = true;
  in.cfg.cosched = core::io_aware_cosched(/*io_priority=*/40);
  apps::Ale3dConfig app;
  app.timesteps = steps;
  app.checkpoint_every = steps / 4;
  app.detach_for_io = true;
  in.factory = apps::ale3d_proxy(app);
  return in;
}

/// Inputs of one run. `smoke` shrinks every workload to 4 nodes.
RunInputs make_run(const Workload& w, std::uint64_t seed, bool smoke) {
  const int nodes = smoke ? 4 : w.nodes;
  const int length = smoke ? w.smoke_length : w.length;
  if (w.name == "ale3d_944") return ale3d(nodes, length, w.pinned_seed, seed);
  return aggregate(w.name != "fig3_1024", nodes, length, w.warmup_ms,
                   w.pinned_seed, seed);
}

// ---------------------------------------------------------------------------
// Child: one run, reported as `key value` lines on stdout
// ---------------------------------------------------------------------------

/// Counts every node's ticks, and the ticks that land on an idle CPU. Each
/// node's kernel runs on one shard, so per-node slots need no atomics. Must
/// outlive the kernels it observes.
class TickCounter final : public kern::SchedObserver {
 public:
  explicit TickCounter(cluster::Cluster& c)
      : cluster_(c), counts_(static_cast<std::size_t>(c.size())) {
    for (int n = 0; n < c.size(); ++n) c.node(n).kernel().set_observer(this);
  }
  TickCounter(const TickCounter&) = delete;
  TickCounter& operator=(const TickCounter&) = delete;

  void on_tick(sim::Time, kern::NodeId node, kern::CpuId cpu) override {
    Count& c = counts_[static_cast<std::size_t>(node)].v;
    ++c.ticks;
    if (cluster_.node(node).kernel().running_on(cpu) == nullptr) ++c.idle;
  }

  [[nodiscard]] std::uint64_t ticks() const { return sum(&Count::ticks); }
  [[nodiscard]] std::uint64_t idle() const { return sum(&Count::idle); }

 private:
  struct Count {
    std::uint64_t ticks = 0;
    std::uint64_t idle = 0;
  };
  [[nodiscard]] std::uint64_t sum(std::uint64_t Count::* field) const {
    std::uint64_t total = 0;
    for (const auto& c : counts_) total += c.v.*field;
    return total;
  }

  cluster::Cluster& cluster_;
  std::vector<util::CacheAligned<Count>> counts_;
};

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Splits each worker's time between its first and last hook into four
/// spans, reading the clock only at window begin, horizon publish and the
/// last peer's horizon wait:
///   exec          window begin -> publish
///   horizon_wait  publish -> last peer's wait
///   drain         last peer's wait -> window begin
///   round         publish -> window begin with no wait between (barrier,
///                 boundary drain and plan, or the step to the next shard)
/// Shard s always runs on worker s % W, so worker slots need no atomics.
class SpanMonitor final : public sim::ShardMonitor {
 public:
  SpanMonitor(int shards, int workers)
      : shards_(shards),
        workers_(workers),
        slots_(static_cast<std::size_t>(workers)) {}

  void on_post(int, int, sim::Time, sim::Time, std::uint64_t) override {}
  void on_admit(int, int, std::uint64_t, sim::Time, sim::Time) override {}
  void on_plan(sim::Time, bool) override {}

  void on_window_begin(int shard, sim::Time) override {
    Worker& w = slot(shard);
    const Clock::time_point now = Clock::now();
    switch (w.mark) {
      case Mark::Publish: w.round += now - w.last; break;
      case Mark::Wait: w.drain += now - w.last; break;
      case Mark::Begin: w.exec += now - w.last; break;  // final round
      case Mark::None: break;
    }
    w.mark = Mark::Begin;
    w.last = now;
  }
  void on_horizon_publish(int shard, sim::Time) override {
    Worker& w = slot(shard);
    const Clock::time_point now = Clock::now();
    if (w.mark == Mark::Begin) w.exec += now - w.last;
    w.mark = Mark::Publish;
    w.last = now;
  }
  void on_horizon_wait(int dst, int src) override {
    if (src != (dst == shards_ - 1 ? shards_ - 2 : shards_ - 1)) return;
    Worker& w = slot(dst);
    const Clock::time_point now = Clock::now();
    if (w.mark == Mark::Publish) w.wait += now - w.last;
    w.mark = Mark::Wait;
    w.last = now;
  }

  struct Totals {
    double exec_s = 0, wait_s = 0, drain_s = 0, round_s = 0, max_exec_s = 0;
  };
  [[nodiscard]] Totals totals() const {
    Totals t;
    for (const auto& s : slots_) {
      t.exec_s += seconds(s.v.exec);
      t.wait_s += seconds(s.v.wait);
      t.drain_s += seconds(s.v.drain);
      t.round_s += seconds(s.v.round);
      t.max_exec_s = std::max(t.max_exec_s, seconds(s.v.exec));
    }
    return t;
  }
  [[nodiscard]] int workers() const noexcept { return workers_; }

 private:
  enum class Mark : std::uint8_t { None, Begin, Publish, Wait };
  struct Worker {
    Mark mark = Mark::None;
    Clock::time_point last{};
    Clock::duration exec{}, wait{}, drain{}, round{};
  };
  Worker& slot(int shard) {
    return slots_[static_cast<std::size_t>(shard % workers_)].v;
  }

  int shards_;
  int workers_;
  std::vector<util::CacheAligned<Worker>> slots_;
};

// ---------------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------------
//
// On a shared host, other tenants' load can slow the simulator by up to 1.8x
// for minutes at a time, and raw host times of the same code then spread by
// 15 to 20 % between runs a few minutes apart (README, "Host load"). The
// parent therefore times a fixed slice of event-queue work just before and
// just after every child, on as many threads as the child's run uses, and
// every reported timing is scaled to the probe's time on the reference host:
// raw * kProbeRefS / probe. The probe slows with the host but not with the
// simulator, which it shares no code with, so a change to the simulator
// still moves the scaled times in full.

/// The probe's time on an unloaded vCPU of the reference host (README,
/// "Host load").
constexpr double kProbeRefS = 0.08;

struct alignas(64) ProbeRecord {
  std::uint64_t word[8];
};

/// A fixed, seeded event loop: 400 k pops and pushes on a 16 k-entry binary
/// heap, each touching one of 128 k cache-line records (8 MB). Returns the
/// loop's host time; building the table is not timed.
double probe_once() {
  constexpr std::uint32_t kRecords = 1u << 17;
  struct Event {
    std::uint64_t t;
    std::uint32_t record;
  };
  const auto later = [](const Event& a, const Event& b) { return a.t > b.t; };
  std::vector<ProbeRecord> table(kRecords);
  std::vector<Event> heap;
  heap.reserve(1u << 15);
  std::uint64_t x = 88172645463325252ull, acc = 0;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto record = [](std::uint64_t v) {
    return static_cast<std::uint32_t>(v % kRecords);
  };
  for (int i = 0; i < 16384; ++i) heap.push_back({next() % 100000, record(next())});
  std::make_heap(heap.begin(), heap.end(), later);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 400000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Event e = heap.back();
    heap.pop_back();
    std::uint64_t* w = table[e.record].word;
    switch (w[0] & 3) {
      case 0: w[1] += e.t; break;
      case 1: w[2] ^= acc; break;
      case 2: w[3] = w[3] * 31 + e.t; break;
      default: w[4] += w[1] >> 3; break;
    }
    w[0] += next();
    acc += w[(e.t >> 2) & 7];
    heap.push_back({e.t + 1 + next() % 5000, record(next() ^ acc)});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  volatile std::uint64_t sink = acc;  // keeps the loop from being optimised out
  (void)sink;
  return s;
}

/// Runs the probe on `threads` threads at once; the slowest sets the time,
/// as the slowest worker sets a parallel run's. Thread i runs on CPU i, as
/// ShardedEngine pins worker i: left to the scheduler, these short-lived
/// threads all start on their creator's CPU and share it for most of the
/// probe.
double probe(int threads) {
  if (threads <= 1) return probe_once();
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> times(static_cast<std::size_t>(threads));
  {
    std::vector<std::jthread> pool;
    for (int i = 0; i < threads; ++i)
      pool.emplace_back([&times, i, hw] {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<unsigned>(i) % hw, &set);
        (void)::sched_setaffinity(0, sizeof set, &set);
        times[static_cast<std::size_t>(i)] = probe_once();
      });
  }
  return *std::max_element(times.begin(), times.end());
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of this process image in KiB. The child's ru_maxrss
/// would not do: posix_spawn's child starts on the parent's memory, so its
/// ru_maxrss also counts the parent's peak, probe tables included.
long peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  return 0;
}

/// The history fingerprint described at the top of the file.
std::string fingerprint(core::Simulation& sim, const core::SimulationResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (std::uint32_t ch = 0; ch < mpi::kMaxChannels; ++ch) {
    const mpi::ChannelStats& c = sim.job().channel(ch);
    mix(c.all_us.count());
    for (const double us : c.recorded_us) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &us, sizeof bits);
      mix(bits);
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return std::to_string(r.elapsed.count()) + ":" +
         std::to_string(r.events_at_completion) + ":" + hex;
}

int child_main(const Workload& workload, std::uint64_t seed, int parallel,
               bool smoke, bool traced) {
  const auto build = [&] {
    RunInputs in = make_run(workload, seed, smoke);
    in.cfg.parallel = parallel;
    return std::make_unique<core::Simulation>(std::move(in.cfg), in.factory);
  };
  // Observers outlive the simulation so no kernel or engine ever holds a
  // dangling pointer to them.
  std::optional<TickCounter> ticks;
  std::optional<SpanMonitor> spans;
  // Set up three times, run the last, and report the median: the first
  // construction also pays the process's first page faults, whose cost
  // follows the host's memory pressure more than this code.
  std::unique_ptr<core::Simulation> owned;
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    owned.reset();
    const Clock::time_point t0 = Clock::now();
    owned = build();
    setups.push_back(seconds(Clock::now() - t0));
  }
  core::Simulation& sim = *owned;
  sim::ShardedEngine* sh = sim.sharded();
  if (traced) {
    ticks.emplace(sim.cluster());
    if (sh != nullptr) {
      spans.emplace(sh->partitions(), std::min(parallel, sh->partitions()));
      sh->set_monitor(&*spans);
    }
  }
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const core::SimulationResult res = sim.run();
  const Clock::time_point t1 = Clock::now();
  const double cpu1 = cpu_seconds();
  if (sh != nullptr) sh->set_monitor(nullptr);

  std::uint64_t ticks_taken = 0, preemptions = 0, dispatches = 0, ipis = 0;
  std::uint64_t activations = 0, io_requests = 0, io_bytes = 0;
  cluster::Cluster& cl = sim.cluster();
  for (int n = 0; n < cl.size(); ++n) {
    cluster::Node& node = cl.node(n);
    const kern::Accounting& a = node.kernel().accounting();
    ticks_taken += a.ticks_taken;
    preemptions += a.preemptions;
    dispatches += a.dispatches;
    ipis += a.ipis_sent;
    if (node.daemons() != nullptr)
      for (const auto& d : node.daemons()->daemons())
        activations += d->stats().activations;
    if (node.io_service() != nullptr) {
      io_requests += node.io_service()->stats().requests;
      io_bytes += node.io_service()->stats().bytes;
    }
  }
  std::uint64_t spans_total = 0;
  for (std::uint32_t ch = 0; ch < mpi::kMaxChannels; ++ch)
    spans_total += sim.job().channel(ch).all_us.count();
  const net::FabricStats fs = cl.fabric().stats();

  std::ostringstream os;
  os.precision(17);
  os << "fingerprint " << fingerprint(sim, res) << "\n"
     << "completed " << (res.completed ? 1 : 0) << "\n"
     << "setup_s " << util::Summary(setups).median() << "\n"
     << "wall_s " << seconds(t1 - t0) << "\n"
     << "cpu_s " << (cpu1 - cpu0) << "\n"
     << "events " << res.events_at_completion << "\n"
     << "ticks " << ticks_taken << "\n"
     << "preemptions " << preemptions << "\n"
     << "dispatches " << dispatches << "\n"
     << "ipis " << ipis << "\n"
     << "net_messages " << fs.messages << "\n"
     << "net_bytes " << fs.bytes << "\n"
     << "net_intra " << fs.intra_node << "\n"
     << "spans " << spans_total << "\n"
     << "allreduce_mean_us "
     << sim.job().channel(apps::kChanAllreduce).all_us.mean() << "\n"
     << "activations " << activations << "\n"
     << "io_requests " << io_requests << "\n"
     << "io_bytes " << io_bytes << "\n"
     << "peak_rss_kib " << peak_rss_kib() << "\n";
  if (sh != nullptr) {
    const sim::PlannerStats ps = sh->planner_stats();
    os << "partitions " << sh->partitions() << "\n"
       << "rounds " << ps.rounds << "\n"
       << "windows " << ps.windows << "\n"
       << "coalesced " << ps.coalesced << "\n"
       << "ring_posts " << ps.ring_posts << "\n"
       << "ring_overflows " << ps.ring_overflows << "\n";
  }
  if (ticks) os << "traced_ticks " << ticks->ticks() << "\n"
                << "idle_ticks " << ticks->idle() << "\n";
  if (spans) {
    const SpanMonitor::Totals t = spans->totals();
    os << "workers " << spans->workers() << "\n"
       << "exec_s " << t.exec_s << "\n"
       << "horizon_wait_s " << t.wait_s << "\n"
       << "drain_s " << t.drain_s << "\n"
       << "round_s " << t.round_s << "\n"
       << "max_exec_s " << t.max_exec_s << "\n";
  }
  std::cout << os.str() << std::flush;
  return 0;
}

// ---------------------------------------------------------------------------
// Parent: spawn children, verify, aggregate
// ---------------------------------------------------------------------------

struct Options {
  std::vector<Workload> workloads;
  std::optional<std::uint64_t> seed;
  double seconds = 0;  // 0 = exactly three repeats
  int parallel = 1;  // workers of a parallel run; main sizes it
  bool trace = false;
  bool smoke = false;
  std::string goldens = E2E_GOLDENS;
};

using Record = std::map<std::string, std::string, std::less<>>;

struct Run {
  bool ok = false;  // exited 0 and reported a completed run
  Record rec;
  double peak_rss_mb = 0;
  double probe_s = 0;  // mean of the probes just before and after the child
  double wall_s = 0;   // the probes and the child, start to end

  [[nodiscard]] double num(std::string_view key) const {
    const auto it = rec.find(key);
    return it == rec.end() ? 0.0 : std::stod(it->second);
  }
  [[nodiscard]] std::string str(std::string_view key) const {
    const auto it = rec.find(key);
    return it == rec.end() ? std::string() : it->second;
  }
  /// A host time the child reported, scaled to the reference host speed.
  [[nodiscard]] double scaled(std::string_view key) const {
    return num(key) * kProbeRefS / probe_s;
  }
};

/// Runs one child to completion and reaps it; kills it at kChildTimeout.
/// The parent runs the host-speed probe just before and just after it, on
/// as many threads as the child's run uses; in the child the probe's tables
/// would count towards its peak RSS.
Run spawn_child(const Options& o, std::string_view workload,
                std::uint64_t seed, bool parallel, bool traced) {
  std::vector<std::string> args = {
      "e2e", "--child", "--workload=" + std::string(workload),
      "--seed=" + std::to_string(seed),
      "--parallel=" + std::to_string(parallel ? o.parallel : 0)};
  if (o.smoke) args.emplace_back("--smoke");
  if (traced) args.emplace_back("--trace");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  Run run;
  const Clock::time_point begin = Clock::now();
  const int probe_threads = parallel ? o.parallel : 1;
  const double probe_before = probe(probe_threads);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    std::perror("e2e: pipe2");
    return run;
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  const Clock::time_point start = Clock::now();
  const int rc =
      ::posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    std::cerr << "e2e: posix_spawn: " << std::strerror(rc) << "\n";
    ::close(fds[0]);
    return run;
  }
  std::string out;
  bool timed_out = false;
  for (;;) {
    const auto left = kChildTimeout - (Clock::now() - start);
    if (left <= Clock::duration::zero()) {
      timed_out = true;
      ::kill(pid, SIGKILL);
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(left).count() + 1);
    const int ready = ::poll(&p, 1, ms);
    if (ready == 0 || (ready < 0 && errno == EINTR)) continue;
    if (ready < 0) {
      ::kill(pid, SIGKILL);
      break;
    }
    char buf[4096];
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  run.probe_s = (probe_before + probe(probe_threads)) / 2;
  run.wall_s = seconds(Clock::now() - begin);
  std::istringstream is(out);
  std::string key, value;
  while (is >> key >> value) run.rec[key] = value;
  run.peak_rss_mb = run.num("peak_rss_kib") / 1024.0;
  const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  run.ok = exited_ok && !timed_out && run.str("completed") == "1";
  if (!run.ok)
    std::cerr << "e2e: " << workload << (parallel ? " parallel" : " serial")
              << " run failed ("
              << (timed_out     ? "timed out"
                  : !exited_ok ? "child exit status " + std::to_string(status)
                               : std::string("hit the horizon"))
              << ")\n";
  return run;
}

/// golden.txt: `workload size seed fingerprint` lines, `#` comments.
using Goldens = std::map<std::string, std::string, std::less<>>;

std::string golden_key(std::string_view workload, bool smoke,
                       std::uint64_t seed) {
  return std::string(workload) + (smoke ? " smoke " : " full ") +
         std::to_string(seed);
}

Goldens load_goldens(const std::string& path) {
  Goldens g;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, size, seed, fp;
    if (ls >> w >> size >> seed >> fp) g[w + " " + size + " " + seed] = fp;
  }
  return g;
}

/// True when `r` completed with fingerprint `reference`; says why not.
bool matches(std::string_view workload, std::string_view mode, const Run& r,
             const std::string& reference, std::string_view against) {
  if (!r.ok) return false;
  if (r.str("fingerprint") == reference) return true;
  std::cerr << "e2e: " << workload << " " << mode << " fingerprint "
            << r.str("fingerprint") << " differs from " << against << " "
            << reference << "\n";
  return false;
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

using Samples = std::map<std::string, std::vector<double>, std::less<>>;

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  bool end_to_end;
};

constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", true},
    {"serial_wall_s", "s", true},
    {"parallel_wall_s", "s", true},
    {"parallel_cpu_s", "core-s", true},
    {"serial_peak_rss_mb", "MB", true},
    {"parallel_peak_rss_mb", "MB", true},
    {"sim.events", "count", false},
    {"sim.serial_ns_per_event", "ns", false},
    {"shard.rounds", "count", false},
    {"shard.windows", "count", false},
    {"shard.coalesced_share", "ratio", false},
    {"shard.ring_posts", "count", false},
    {"shard.ring_overflows", "count", false},
    {"shard.speedup", "ratio", false},
    {"kern.ticks", "count", false},
    {"kern.preemptions", "count", false},
    {"kern.dispatches", "count", false},
    {"kern.ipis", "count", false},
    {"kern.tick_share", "ratio", false},
    {"net.messages", "count", false},
    {"net.bytes", "B", false},
    {"net.intra_node_share", "ratio", false},
    {"mpi.spans", "count", false},
    {"mpi.allreduce_mean_us", "us", false},
    {"daemons.activations", "count", false},
    {"daemons.io_requests", "count", false},
    {"daemons.io_bytes", "B", false},
    {"host.probe_s", "s", false},
    {"host.serial_raw_wall_s", "s", false},
    {"host.parallel_raw_wall_s", "s", false},
    // From the traced pass only.
    {"shard.exec_s", "worker-s", false},
    {"shard.horizon_wait_s", "worker-s", false},
    {"shard.drain_s", "worker-s", false},
    {"shard.round_s", "worker-s", false},
    {"shard.exec_share", "ratio", false},
    {"shard.exec_imbalance", "ratio", false},
    {"kern.idle_tick_share", "ratio", false},
    {"trace.overhead", "ratio", false}};

/// Adds the samples one serial run gives on its own. Host times are scaled
/// to the reference host speed; the host.* metrics keep them raw.
void add_serial(Samples& s, const Run& ser) {
  s["serial_wall_s"].push_back(ser.scaled("wall_s"));
  s["serial_peak_rss_mb"].push_back(ser.peak_rss_mb);
  s["sim.serial_ns_per_event"].push_back(
      ratio(ser.scaled("wall_s") * 1e9, ser.num("events")));
  s["host.probe_s"].push_back(ser.probe_s);
  s["host.serial_raw_wall_s"].push_back(ser.num("wall_s"));
}

/// Adds one timed repeat's end-to-end and counted layer samples, from its
/// first serial run and its parallel run.
void add_repeat(Samples& s, const Run& ser, const Run& par) {
  add_serial(s, ser);
  const double parallel_wall = par.scaled("wall_s");
  s["setup_s"].push_back(ser.scaled("setup_s") + par.scaled("setup_s"));
  s["parallel_wall_s"].push_back(parallel_wall);
  s["parallel_cpu_s"].push_back(par.scaled("cpu_s"));
  s["parallel_peak_rss_mb"].push_back(par.peak_rss_mb);
  s["host.parallel_raw_wall_s"].push_back(par.num("wall_s"));

  const double events = ser.num("events");
  s["sim.events"].push_back(events);
  s["shard.rounds"].push_back(par.num("rounds"));
  s["shard.windows"].push_back(par.num("windows"));
  s["shard.coalesced_share"].push_back(
      ratio(par.num("coalesced"), par.num("windows") * par.num("partitions")));
  s["shard.ring_posts"].push_back(par.num("ring_posts"));
  s["shard.ring_overflows"].push_back(par.num("ring_overflows"));
  s["shard.speedup"].push_back(ratio(ser.scaled("wall_s"), parallel_wall));
  s["kern.ticks"].push_back(ser.num("ticks"));
  s["kern.preemptions"].push_back(ser.num("preemptions"));
  s["kern.dispatches"].push_back(ser.num("dispatches"));
  s["kern.ipis"].push_back(ser.num("ipis"));
  s["kern.tick_share"].push_back(ratio(ser.num("ticks"), events));
  s["net.messages"].push_back(ser.num("net_messages"));
  s["net.bytes"].push_back(ser.num("net_bytes"));
  s["net.intra_node_share"].push_back(
      ratio(ser.num("net_intra"), ser.num("net_messages")));
  s["mpi.spans"].push_back(ser.num("spans"));
  s["mpi.allreduce_mean_us"].push_back(ser.num("allreduce_mean_us"));
  s["daemons.activations"].push_back(ser.num("activations"));
  s["daemons.io_requests"].push_back(ser.num("io_requests"));
  s["daemons.io_bytes"].push_back(ser.num("io_bytes"));
}

struct Quartiles {
  double p25 = 0, median = 0, p75 = 0;
};

Quartiles quartiles(const std::vector<double>& v) {
  const util::Summary s(v);
  return {s.percentile(25), s.median(), s.percentile(75)};
}

struct WorkloadReport {
  std::string name;
  std::uint64_t seed = 0;
  int runs = 0;
  int failed = 0;
  Samples samples;
};

WorkloadReport bench_workload(const Options& o, const Workload& w,
                              const Goldens& goldens) {
  WorkloadReport rep;
  rep.name = std::string(w.name);
  rep.seed = o.seed.value_or(w.pinned_seed);
  const auto g = goldens.find(golden_key(w.name, o.smoke, rep.seed));
  const bool has_golden = g != goldens.end();
  const bool golden_missing = !has_golden && rep.seed == w.pinned_seed;
  if (golden_missing)
    std::cerr << "e2e: " << w.name << ": no golden fingerprint for the pinned "
              << "seed in " << o.goldens << "\n";
  // Both runs must match the golden when there is one; otherwise the
  // parallel run must match the serial one.
  const auto check_pair = [&](const Run& ser, const Run& par) {
    const bool ser_ok =
        !golden_missing &&
        (has_golden ? matches(w.name, "serial", ser, g->second, "golden")
                    : ser.ok);
    const bool par_ok =
        !golden_missing &&
        (has_golden ? matches(w.name, "parallel", par, g->second, "golden")
                    : ser.ok && matches(w.name, "parallel", par,
                                        ser.str("fingerprint"), "serial"));
    rep.failed += (ser_ok ? 0 : 1) + (par_ok ? 0 : 1);
    return ser_ok && par_ok;
  };
  // A repeat's further serial runs must match the golden, or its first.
  const auto check_serial = [&](const Run& more, const Run& first) {
    const bool ok =
        !golden_missing &&
        (has_golden ? matches(w.name, "serial", more, g->second, "golden")
                    : first.ok && matches(w.name, "serial", more,
                                          first.str("fingerprint"), "serial"));
    rep.failed += ok ? 0 : 1;
    return ok;
  };

  const Clock::time_point start = Clock::now();
  const int min_repeats = o.seconds > 0 ? 1 : 3;
  double longest_repeat = 0;
  for (int r = 0;; ++r) {
    if (r >= min_repeats) {
      // Reserve room for the traced pair, which runs a little slower.
      const double need = longest_repeat * (o.trace ? 2.5 : 1.0);
      if (o.seconds <= 0 || seconds(Clock::now() - start) + need > o.seconds)
        break;
    }
    const Run ser = spawn_child(o, w.name, rep.seed, false, false);
    const Run par = spawn_child(o, w.name, rep.seed, true, false);
    double took = ser.wall_s + par.wall_s;
    rep.runs += 2;
    if (check_pair(ser, par)) add_repeat(rep.samples, ser, par);
    for (int i = 1; i < w.serial_runs; ++i) {
      const Run more = spawn_child(o, w.name, rep.seed, false, false);
      took += more.wall_s;
      ++rep.runs;
      if (check_serial(more, ser)) add_serial(rep.samples, more);
    }
    longest_repeat = std::max(longest_repeat, took);
  }
  if (!o.trace) return rep;

  const Run ser = spawn_child(o, w.name, rep.seed, false, true);
  const Run par = spawn_child(o, w.name, rep.seed, true, true);
  rep.runs += 2;
  if (!check_pair(ser, par)) return rep;
  // The observer must see exactly the ticks the kernels account.
  if (ser.num("traced_ticks") != ser.num("ticks")) {
    std::cerr << "e2e: " << w.name << " tick observer saw "
              << ser.str("traced_ticks") << " ticks, kernels accounted "
              << ser.str("ticks") << "\n";
    ++rep.failed;
    return rep;
  }
  // The four spans must cover every worker for the whole run. Smoke runs
  // last milliseconds, where starting the worker threads alone exceeds 5 %.
  const double exec = par.num("exec_s"), wait = par.num("horizon_wait_s"),
               drain = par.num("drain_s"), round = par.num("round_s");
  const double covered = exec + wait + drain + round;
  const double budget = par.num("workers") * par.num("wall_s");
  if (!o.smoke && std::abs(covered - budget) > 0.05 * budget) {
    std::cerr << "e2e: " << w.name << " shard spans cover " << covered
              << " worker-s of " << budget << " (workers x wall)\n";
    ++rep.failed;
    return rep;
  }
  Samples& s = rep.samples;
  s["shard.exec_s"].push_back(exec);
  s["shard.horizon_wait_s"].push_back(wait);
  s["shard.drain_s"].push_back(drain);
  s["shard.round_s"].push_back(round);
  s["shard.exec_share"].push_back(ratio(exec, covered));
  s["shard.exec_imbalance"].push_back(
      ratio(par.num("max_exec_s"), exec / par.num("workers")));
  s["kern.idle_tick_share"].push_back(
      ratio(ser.num("idle_ticks"), ser.num("events")));
  if (const auto it = s.find("parallel_wall_s"); it != s.end())
    s["trace.overhead"].push_back(par.scaled("wall_s") /
                                  quartiles(it->second).median);
  return rep;
}

// ---------------------------------------------------------------------------
// Build stamp and output
// ---------------------------------------------------------------------------

constexpr std::string_view kBuildType = E2E_BUILD_TYPE;
#if PASCHED_VALIDATE_ENABLED
constexpr bool kValidate = true;
#else
constexpr bool kValidate = false;
#endif

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string shell_line(const std::string& cmd) {
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return {};
  char buf[128] = {};
  std::string out;
  if (std::fgets(buf, sizeof buf, p) != nullptr) out = buf;
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

/// Short commit of the source tree, with "-dirty" when tracked files differ
/// from it; "unknown" when the sources are not a git checkout.
std::string git_commit() {
  const std::filesystem::path root =
      std::filesystem::path(E2E_GOLDENS).parent_path().parent_path();
  if (!std::filesystem::exists(root / ".git")) return "unknown";
  const std::string git = "git -C '" + root.string() + "' ";
  const std::string head = shell_line(git + "rev-parse --short HEAD 2>/dev/null");
  if (head.empty()) return "unknown";
  const bool dirty =
      !shell_line(git + "status --porcelain --untracked-files=no 2>/dev/null")
           .empty();
  return head + (dirty ? "-dirty" : "");
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// Calls fn(def, samples) for every metric with samples, in table order.
template <typename Fn>
void for_each_metric(const WorkloadReport& r, Fn&& fn) {
  for (const MetricDef& m : kMetrics) {
    const auto it = r.samples.find(m.name);
    if (it != r.samples.end() && !it->second.empty()) fn(m, it->second);
  }
}

void write_json(const Options& o, const std::vector<WorkloadReport>& reps) {
  std::ofstream js(o.smoke ? "BENCH_e2e_smoke.json" : "BENCH_e2e.json");
  js << "{\n  \"bench\": \"e2e\",\n"
     << "  \"git_commit\": \"" << git_commit() << "\",\n"
     << "  \"build_type\": \"" << kBuildType << "\",\n"
     << "  \"validate\": " << (kValidate ? "true" : "false") << ",\n"
     << "  \"compiler\": \"" << __VERSION__ << "\",\n"
     << "  \"nproc\": " << nproc() << ",\n"
     << "  \"parallel\": " << o.parallel << ",\n"
     << "  \"smoke\": " << (o.smoke ? "true" : "false") << ",\n"
     << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const WorkloadReport& r = reps[i];
    js << "    {\"name\": \"" << r.name << "\", \"seed\": " << r.seed
       << ", \"runs\": " << r.runs << ", \"failed_runs\": " << r.failed
       << ", \"metrics\": {";
    bool first = true;
    for_each_metric(r, [&](const MetricDef& m, const std::vector<double>& v) {
      const Quartiles q = quartiles(v);
      js << (first ? "\n" : ",\n") << "      \"" << m.name
         << "\": {\"median\": " << num(q.median) << ", \"p25\": " << num(q.p25)
         << ", \"p75\": " << num(q.p75) << ", \"n\": " << v.size()
         << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    });
    js << "}}" << (i + 1 < reps.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
}

/// The one-line result for a single workload: end-to-end metrics, or with
/// --trace the layer metrics.
void print_result_line(const Options& o, const WorkloadReport& r) {
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.runs << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  bool first = true;
  for_each_metric(r, [&](const MetricDef& m, const std::vector<double>& v) {
    if (m.end_to_end == o.trace) return;
    std::cout << (first ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << num(quartiles(v).median)
              << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  });
  std::cout << "}}\n";
}

/// Regenerates the selected workloads' lines and keeps every other line.
int write_goldens(const Options& o) {
  Goldens g = load_goldens(o.goldens);
  for (const Workload& w : o.workloads) {
    for (const bool smoke : {false, true}) {
      Options one = o;
      one.smoke = smoke;
      const Run r = spawn_child(one, w.name, w.pinned_seed, false, false);
      if (!r.ok) return 1;
      g[golden_key(w.name, smoke, w.pinned_seed)] = r.str("fingerprint");
    }
  }
  std::ostringstream os;
  os << "# e2e history fingerprints at each workload's pinned seed, full and\n"
     << "# smoke sizes: workload size seed elapsed_ns:events:span_hash.\n"
     << "# Regenerate with `e2e --write-goldens`. A changed line means the\n"
     << "# simulated physics changed: the same inputs now produce another\n"
     << "# history, which a change that only makes the simulator faster must\n"
     << "# never do.\n";
  for (const Workload& w : kWorkloads)
    for (const bool smoke : {false, true}) {
      const std::string key = golden_key(w.name, smoke, w.pinned_seed);
      if (const auto it = g.find(key); it != g.end())
        os << key << " " << it->second << "\n";
    }
  std::ofstream(o.goldens) << os.str();
  std::cout << "wrote " << o.goldens << "\n";
  return 0;
}

/// Benches every selected workload and reports; 1 when any run failed.
int bench_all(const Options& o) {
  const Goldens goldens = load_goldens(o.goldens);
  std::vector<WorkloadReport> reps;
  int failed = 0;
  for (const Workload& w : o.workloads) {
    reps.push_back(bench_workload(o, w, goldens));
    const WorkloadReport& r = reps.back();
    for_each_metric(r, [&](const MetricDef& m, const std::vector<double>& v) {
      std::cout << r.name << " " << m.name << " " << num(quartiles(v).median)
                << " " << m.unit << "\n";
    });
    std::cout << r.name << " runs " << r.runs << " runs\n"
              << r.name << " failed_runs " << r.failed << " runs\n";
    failed += r.failed;
  }
  write_json(o, reps);
  if (o.seconds > 0 && reps.size() == 1) print_result_line(o, reps.front());
  return failed == 0 ? 0 : 1;
}

int usage(const std::string& why) {
  std::cerr << "e2e: " << why
            << "\nusage: e2e [--workload=NAME] [--seed=N] [--seconds=S] "
               "[--trace] [--smoke] [--goldens=FILE] [--write-goldens]\n";
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto typos =
      flags.unknown({"workload", "seed", "seconds", "trace", "smoke",
                     "goldens", "write-goldens", "child", "parallel"});
  if (!typos.empty()) return usage("unknown flag --" + typos.front());

  Options o;
  const std::string only = flags.get("workload", "");
  for (const Workload& w : kWorkloads)
    if (only.empty() || only == w.name) o.workloads.push_back(w);
  if (o.workloads.empty()) return usage("unknown workload '" + only + "'");
  if (flags.has("seed"))
    o.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  o.seconds = flags.get_double("seconds", 0);
  o.trace = flags.get_bool("trace", false);
  o.smoke = flags.get_bool("smoke", false);
  o.goldens = flags.get("goldens", o.goldens);
  // One hardware thread stays free for the parent and the OS, so spinning
  // workers never compete with them for a core.
  o.parallel = std::clamp(nproc() - 1, 1, 4);
  if (o.seconds < 0) return usage("need --seconds >= 0");

  try {
    if (flags.get_bool("child", false))
      return child_main(o.workloads.front(), o.seed.value_or(1),
                        static_cast<int>(flags.get_int("parallel", 0)),
                        o.smoke, o.trace);
    if (flags.get_bool("write-goldens", false)) return write_goldens(o);
    if (!o.smoke && (kBuildType != "Release" || kValidate)) {
      std::cerr << "e2e: timing needs a Release build with "
                   "PASCHED_VALIDATE=OFF; this one is '"
                << kBuildType << "' with validation "
                << (kValidate ? "on" : "off")
                << ". Build it with\n  cmake -S e2e -B .bench_build "
                   "-DCMAKE_BUILD_TYPE=Release -DPASCHED_VALIDATE=OFF && "
                   "cmake --build .bench_build --target e2e\nor run --smoke.\n";
      return kExitWrongBuild;
    }
    return bench_all(o);
  } catch (const std::exception& e) {
    std::cerr << "e2e: " << e.what() << "\n";
    return 1;
  }
}
