// The pasched-race run drivers: an audited single run (annotation layer +
// vector-clock monitor attached to the partitioned executor) and the
// window-perturbation fuzz loop that shrinks conservative windows toward the
// legal minimum with seeded window jitter (sim::ShardedEngine::
// set_window_jitter). Every perturbed run must reproduce the unperturbed
// canonical digest — the lookahead guarantee makes any shorter window
// equally correct — so a divergence is a latent ordering bug, reported as
// PSL204 naming the perturbation index and fuzz seed that reproduce it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/equivalence.hpp"
#include "race/monitor.hpp"

namespace pasched::race {

struct AuditOptions {
  /// Worker threads for the partitioned run (>= 1). The planted-fault
  /// regression scenario should run with 1 so the *logical* violation is
  /// observed without a physical data race.
  int workers = 2;
  /// Window-jitter seed (std::nullopt = full-lookahead windows).
  std::optional<std::uint64_t> window_jitter;
  /// Plants a direct cross-shard write: an event on shard 0 mutates the
  /// kernel of block 1's first node (node 1 on small clusters) without going
  /// through ShardedEngine::post — the CI regression that the auditor must
  /// catch.
  /// Requires a multi-node cluster.
  bool plant_cross_shard_write = false;
  /// Simulated time of the planted write.
  sim::Duration plant_at = sim::Duration::sec(1);
};

struct AuditRun {
  core::CanonicalDigest digest;
  std::vector<analysis::Diagnostic> findings;
  Monitor::Stats stats;
};

/// One audited run: forces partitioned execution (`cfg.parallel` is
/// overridden with opt.workers when it is 0), installs the ownership sink +
/// seam monitor, and returns the canonical digest plus every PSL2xx finding.
[[nodiscard]] AuditRun run_audited(const core::SimulationConfig& cfg,
                                   const mpi::WorkloadFactory& factory,
                                   const AuditOptions& opt);

struct FuzzResult {
  int runs = 0;
  std::uint64_t base_hash = 0;
  /// All findings across the baseline and every perturbed run (ownership /
  /// race findings, plus one PSL204 per digest divergence).
  std::vector<analysis::Diagnostic> findings;
};

/// Runs the unperturbed baseline, then `iterations` seeded window
/// perturbations, checking each digest against the baseline. Perturbation
/// i jitters with the seed sim::Rng(seed).fork(i).next_u64(), so a
/// run with the same `seed` and at least i+1 iterations replays it.
[[nodiscard]] FuzzResult fuzz_windows(const core::SimulationConfig& cfg,
                                      const mpi::WorkloadFactory& factory,
                                      int iterations, std::uint64_t seed,
                                      int workers);

}  // namespace pasched::race
