#include "analysis/diagnostic.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace pasched::analysis {

const char* to_string(Severity s) noexcept {
  switch (s) {
    case Severity::Info: return "INFO";
    case Severity::Warning: return "WARNING";
    case Severity::Error: return "ERROR";
  }
  return "?";
}

const std::vector<RuleInfo>& all_rules() {
  // The paper's misconfiguration pathologies, one machine-checkable rule
  // each. Keep in ID order; DESIGN.md §5.4 mirrors this table.
  static const std::vector<RuleInfo> kRules = {
      {"PSL001", Severity::Error,
       "favored priority must be numerically above (worse than) the I/O "
       "daemon's when the workload depends on I/O",
       "§5.3 (naive co-scheduling starved GPFS mmfsd and slowed ALE3D)"},
      {"PSL002", Severity::Error,
       "the unfavored share of a window must span at least one whole "
       "(big-)tick",
       "§3.1.1/§4 (a 250 ms big tick quantizes the unfavored share away)"},
      {"PSL003", Severity::Error,
       "the duty cycle must leave a non-zero unfavored share when the "
       "unfavored priority parks tasks behind every daemon",
       "§4 (an unguarded duty cycle starves daemons outright)"},
      {"PSL004", Severity::Error,
       "the membership heartbeat deadline must exceed the favored stretch "
       "of a window",
       "§4 (daemon timeout tolerances had to be extended; eviction risk)"},
      {"PSL005", Severity::Warning,
       "the MPI progress-engine polling interval should be raised off the "
       "storm-prone 400 ms default",
       "§5.3 (MP_POLLING_INTERVAL=400s neutralized the timer threads)"},
      {"PSL006", Severity::Error,
       "window alignment to period boundaries requires clock "
       "synchronization",
       "§4 (without sync, aligned windows drift apart across nodes)"},
      {"PSL007", Severity::Error,
       "the co-scheduler daemon's own priority must be numerically below "
       "(better than) the favored priority",
       "§4 (the flipper must preempt its own favored tasks to end windows)"},
      {"PSL008", Severity::Warning,
       "the co-scheduling period should be an integer multiple of the "
       "(big-)tick interval",
       "§3.1.1/§4 (timer-driven flips batch to tick boundaries)"},
      {"PSL009", Severity::Error,
       "admin (poe.priority) records must be well-formed: favored "
       "numerically below unfavored, duty in (0,1], period positive, "
       "priorities in [0,127]",
       "§4 (/etc/poe.priority admission records)"},
      {"PSL010", Severity::Warning,
       "cluster-aligned tick boundaries require synchronized (simultaneous) "
       "ticks",
       "§3.2.1/§4 (alignment without simultaneity is incoherent)"},
      {"PSL011", Severity::Warning,
       "co-scheduling with RT scheduling needs reverse-preemption IPIs, or "
       "flips to unfavored only take effect at the next tick",
       "§3 (deficiency 1 of the stock real-time scheduling option)"},
      {"PSL012", Severity::Warning,
       "the preemption IPI latency should be below the tick interval when "
       "RT scheduling is enabled",
       "§3 (IPIs slower than the tick add cost without adding promptness)"},
      {"PSL013", Severity::Error,
       "co-scheduler priorities must lie in [0,127] with favored "
       "numerically below unfavored, duty in (0,1], period positive",
       "§4 (the external co-scheduler's parameter contract)"},
      // Trace rules (PSL1xx): checked by the happens-before trace analyzer
      // over an event slice, not by the static config linter.
      {"PSL101", Severity::Warning,
       "no ready thread should wait behind a numerically-worse-priority "
       "CPU holder on its node (delayed-preemption inversion window)",
       "§2/§5.1 Fig. 4 (tick-granular preemption stretches Allreduce tails)"},
      {"PSL102", Severity::Warning,
       "no open receive-wait should have its expected sender sitting Ready "
       "but off-CPU (stalled-sender cascade)",
       "§2/§5.3 (spin-waiting tasks starved the very daemon they waited on)"},
      {"PSL103", Severity::Error,
       "the instantaneous wait-for graph over open receive-waits must stay "
       "acyclic",
       "§2 (cascading spin-wait cycles idle the whole job)"},
      // Partitioned-core rules (PSL2xx): emitted by the pasched-race
      // shard-ownership and determinism auditor (src/race/), not by the
      // config linter or the trace analyzer.
      {"PSL201", Severity::Error,
       "shard-owned state (kernels, tasks, daemons, per-node trace buffers) "
       "must be mutated only by the worker executing the owning shard",
       "§3.2 (per-node kernel state is private to its node's scheduler)"},
      {"PSL202", Severity::Error,
       "every cross-shard access pair must be ordered by the shard "
       "happens-before relation (ShardedEngine posts, inbox drains, window "
       "barriers) — unordered pairs are data races in the parallel core",
       "§3.2.1 (cross-node effects travel only through the switch fabric)"},
      {"PSL203", Severity::Error,
       "a cross-shard delivery must not land in the destination shard's "
       "past: delivery time >= send time + guaranteed lookahead >= the "
       "destination clock at admission",
       "§3.2.1 (conservative windows rest on the minimum fabric latency)"},
      {"PSL204", Severity::Error,
       "the canonical run digest must be invariant under window-quantum and "
       "barrier-phase perturbation — divergence means an ordering accident, "
       "not a scheduling decision, shaped the observable history",
       "§5 (Fig. 3/5 claims depend on bit-identical parallel execution)"},
      {"PSL401", Severity::Error,
       "outside src/sim and the harness layers (tools/tests/bench), no code "
       "may bind a mutable sim::Engine or call its mutators directly — all "
       "posting goes through sim::EventContext / sim::ShardedEngine::post, "
       "the seam that keeps partitioned execution sound",
       "§3.2.1 (one global event queue is exactly what does not scale)"},
      {"PSL402", Severity::Error,
       "every shard-resident type (cluster::Node, kern::Kernel, mpi::Job/"
       "Task, daemon and trace state) carries a race::Owned tag, and its "
       "mutable fields are atomic or ownership-guarded — otherwise "
       "pasched-race cannot witness a cross-shard mutation",
       "§3.2 (per-node state must stay per-node when nodes run in parallel)"},
      {"PSL403", Severity::Error,
       "a PASCHED_HOT function performs no heap allocation, locking, throw, "
       "blocking call, or I/O: the per-event path must be straight-line so "
       "windows amortize their barriers",
       "§3.1.1 (sub-quantum slices leave no room for kernel detours)"},
      {"PSL404", Severity::Error,
       "PASCHED_CHECK / PASCHED_ASSERT_* arguments are pure observations: "
       "the expression vanishes under -DPASCHED_VALIDATE=OFF, so a side "
       "effect there makes validated and release builds diverge",
       "§4 (the prototype must behave identically with probes removed)"},
      {"PSL405", Severity::Error,
       "the deterministic core (sim/kern/net/mpi) contains no wall-clock, "
       "libc randomness, or unordered-container iteration — traces and "
       "digests are a pure function of the seed",
       "§4.1 (runs are compared across kernels; noise voids the comparison)"},
      {"PSL406", Severity::Error,
       "no detached or raw std::thread outside the ShardedEngine worker "
       "pool: ad-hoc threads bypass domain scoping and the window barrier "
       "protocol",
       "§3.2.1 (parallelism belongs to the engine, not to callers)"},
      // Contention rules (PSL5xx): emitted by pasched-srclint's static
      // lock-order/serialization rules (src/contend/).
      {"PSL501", Severity::Error,
       "the cross-TU lock-order graph must stay acyclic: two code paths "
       "acquiring the same mutexes in opposite order can deadlock the "
       "shard worker pool",
       "§3.2.1 (a stuck worker stalls every window barrier behind it)"},
      {"PSL502", Severity::Error,
       "no lock may be held across a blocking seam (std::barrier "
       "arrive_and_wait, condition-variable wait, inbox drain): the holder "
       "parks with the lock taken and serializes every worker that needs it",
       "§3.1.1 (synchronization cost, not work, bounds the window rate)"},
      {"PSL503", Severity::Warning,
       "mutable fields owned by distinct race::Domain workers must not "
       "share a 64-byte cache line: per-shard counters and clocks need "
       "alignas(64) (util::CacheAligned) padding or coherence traffic "
       "serializes the shard pool",
       "§3.2 (per-node state must stay physically per-node to scale)"},
      {"PSL504", Severity::Warning,
       "a shared atomic should not be updated inside a hot loop without "
       "local accumulation: per-iteration fetch_add on one cache line is a "
       "coherence hotspot — accumulate locally, publish once per window",
       "§3.1.1 (sub-quantum slices leave no room for coherence stalls)"},
      {"PSL505", Severity::Warning,
       "a mutex guarding state whose race::Owned tag proves single-domain "
       "ownership is wider than its ownership scope: it serializes a "
       "partition-private path the ownership discipline already isolates",
       "§3.2 (ownership, not locking, is the paper's isolation mechanism)"},
      // PSL6xx: pasched-srclint — allocation & memory-layout discipline on
      // the event hot path, certified statically (601-605) and verified by
      // the runtime allocation ledger (606).
      {"PSL601", Severity::Error,
       "the per-event hot path (PASCHED_HOT functions and the Engine event "
       "lifecycle) must not allocate: no new/malloc/make_unique/make_shared "
       "and no owning-container locals — an allocator round-trip per event "
       "dwarfs the event itself and serializes shards on the heap lock",
       "§3.1.1 (sub-quantum event cost budgets leave no room for malloc)"},
      {"PSL602", Severity::Error,
       "a container grown on the hot path must follow the reserve/"
       "reused-scratch discipline (reserve in cold code, clear-for-reuse, "
       "or util::reserve_cold): undisciplined push_back can reallocate in "
       "steady state",
       "§3.1.1 (amortized growth is sanctioned only outside the window)"},
      {"PSL603", Severity::Warning,
       "event- and shard-resident types (heap items, slots, cross-shard "
       "envelopes) should hold fixed-size values, not owning containers, "
       "smart pointers, or raw pointers: each indirection is a per-event "
       "cache miss outside the slab's footprint",
       "§3.2 (per-node state must stay physically compact to scale)"},
      {"PSL604", Severity::Error,
       "a PASCHED_ARENA-annotated type must honor the arena contract: "
       "trivially destructible, trivially copyable, no owning members — "
       "slabs skip per-element destructors and relocate with memcpy",
       "§3.2 (arena residency is the engine's slab storage contract)"},
      {"PSL605", Severity::Info,
       "a PASCHED_HOT function with no PSL601/PSL602 hit (suppressed ones "
       "included) is statically certified an allocation-free region; the "
       "claim is machine-readable and joined to the runtime allocation "
       "ledger by qualified function name",
       "§5 (certify-then-verify: static claims become runtime contracts)"},
      {"PSL606", Severity::Error,
       "a statically certified allocation-free region recorded hot-window "
       "allocations at runtime: the PSL605 claim is refuted by the "
       "allocation ledger",
       "§5 (certify-then-verify: runtime witnesses police static claims)"},
  };
  return kRules;
}

const RuleInfo* find_rule(const std::string& id) {
  const auto& rules = all_rules();
  const auto it = std::find_if(rules.begin(), rules.end(),
                               [&](const RuleInfo& r) { return id == r.id; });
  return it == rules.end() ? nullptr : &*it;
}

std::string Diagnostic::str() const {
  std::ostringstream os;
  os << rule << ' ' << to_string(severity) << " [" << subject << "] "
     << message;
  if (!fix_hint.empty()) os << " (fix: " << fix_hint << ")";
  return os.str();
}

bool any_errors(const std::vector<Diagnostic>& ds) noexcept {
  return std::any_of(ds.begin(), ds.end(), [](const Diagnostic& d) {
    return d.severity == Severity::Error;
  });
}

std::string rule_table() {
  std::ostringstream os;
  for (const RuleInfo& r : all_rules()) {
    os << r.id << "  " << to_string(r.severity) << "\n    invariant: "
       << r.invariant << "\n    paper:     " << r.paper_ref << "\n";
  }
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string json_report_header(const std::string& tool) {
  std::ostringstream os;
  os << "\"schema\": " << kReportSchemaVersion << ",\n  \"tool\": \""
     << json_escape(tool) << "\",";
  return os.str();
}

std::string diagnostics_json(const std::vector<Diagnostic>& ds, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Diagnostic& d = ds[i];
    os << (i == 0 ? "" : ",") << "\n" << pad << "  {\"rule\": \""
       << json_escape(d.rule) << "\", \"severity\": \""
       << to_string(d.severity) << "\", \"subject\": \""
       << json_escape(d.subject) << "\", \"message\": \""
       << json_escape(d.message) << "\", \"fix_hint\": \""
       << json_escape(d.fix_hint) << "\"}";
  }
  os << (ds.empty() ? "" : "\n" + pad) << "]";
  return os.str();
}

}  // namespace pasched::analysis
