// The runtime half of the PSL60x rules: an allocation ledger hanging off a
// global operator new/delete hook (src/alloc/hook.cpp, compiled in only
// under -DPASCHED_VALIDATE=ON). Every allocation on a hooked thread is
// charged to the util::allocgate attribution context — a (site, phase)
// pair the engine maintains with PASCHED_ALLOC_*_SCOPE brackets — into
// thread-local per-site counters (no locks, no atomics on the hot path;
// blocks are aggregated after the workers have joined).
//
// This is the verify side of the PSL605/PSL606 certify-then-verify pair:
// the static analyzer emits an "allocation-free region" claim for every
// clean PASCHED_HOT function, and check_claims() refutes any claim whose
// Core site recorded hot-phase allocations at runtime. Dispatch sites ("Engine.callback") measure the
// *workload's* allocation pressure and never refute an engine claim.
//
// When -DPASCHED_VALIDATE=OFF the hook does not exist, install() is a
// no-op, and report() returns an empty (enabled=false) report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "util/allocgate.hpp"

namespace pasched::alloc {

/// A PSL605 allocation-free-region claim from the static analyzer: the
/// PASCHED_HOT function `function` (qualified, e.g. "Engine::schedule_at" —
/// the Core site naming convention) scanned clean of PSL601/PSL602.
struct AllocClaim {
  std::string function;
  std::string file;  // where the static analyzer saw the definition
  int line = 0;
};

/// One ledger row: a registered site's counters, split by phase.
struct SiteAllocRow {
  std::string name;
  util::AllocSiteKind kind = util::AllocSiteKind::Core;
  std::uint64_t hot_allocs = 0;
  std::uint64_t hot_bytes = 0;
  std::uint64_t hot_frees = 0;
  std::uint64_t cold_allocs = 0;
  std::uint64_t cold_bytes = 0;
  std::uint64_t cold_frees = 0;
};

struct AllocLedgerReport {
  bool enabled = false;            // false under -DPASCHED_VALIDATE=OFF
  std::vector<SiteAllocRow> sites; // sorted by hot_allocs desc, then name
  /// Hot-phase allocations charged to Core (engine/kernel bookkeeping)
  /// sites — the number the BENCH gate holds at zero. Excludes Dispatch
  /// rows: callback/workload allocations are reported, not gated.
  std::uint64_t hot_window_allocs = 0;
  std::uint64_t hot_window_bytes = 0;
  /// Hot-phase allocations charged to Dispatch sites (callback execution).
  std::uint64_t dispatch_hot_allocs = 0;
  std::uint64_t total_allocs = 0;
  std::uint64_t total_bytes = 0;

  [[nodiscard]] std::string str() const;
  /// The report as a JSON object (no schema header — the tool wraps it).
  [[nodiscard]] std::string json(int indent) const;
};

/// Facade over the process-wide allocation hook. The hook's counters are
/// global (operator new replacement is inherently process-wide), so Ledger
/// instances all view the same state; treat it as a scoped handle:
/// install() before the run, report()/check_claims() after, reset()
/// between runs. Install/remove/reset only while no instrumented thread is
/// allocating (before run_until / after it returns).
class Ledger {
 public:
  /// True when the operator new/delete hook is compiled in.
  [[nodiscard]] static constexpr bool available() noexcept {
#if PASCHED_VALIDATE_ENABLED
    return true;
#else
    return false;
#endif
  }

  /// Starts counting (links the hook into the binary; see hook.cpp).
  void install() noexcept;
  /// Stops counting. Counters keep their values until reset().
  void remove() noexcept;
  /// Zeroes every thread's counters.
  void reset() noexcept;

  [[nodiscard]] AllocLedgerReport report() const;

  /// The certify-then-verify join: every claim whose Core site recorded
  /// hot-phase allocations is refuted with a PSL606 ERROR. Unobserved
  /// sites produce nothing (no run touched them).
  [[nodiscard]] std::vector<analysis::Diagnostic> check_claims(
      const std::vector<AllocClaim>& claims) const;
};

}  // namespace pasched::alloc
