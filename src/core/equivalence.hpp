// Canonical run digest for execution-mode equivalence checks: a single hash
// over everything the simulation's observable history contains — scheduling
// intervals, the analyzer event stream, and per-rank completion times — in
// the canonical (t, node, per-node sequence) order. The serial one-shard
// run, `--parallel=1`, and `--parallel=N` must all produce the same
// digest for the same configuration; pasched-audit and the
// parallel-equivalence property test enforce this.
#pragma once

#include <cstdint>
#include <functional>

#include "core/simulation.hpp"

namespace pasched::core {

struct CanonicalDigest {
  /// FNV-1a over the truncated canonical history (see run_canonical).
  std::uint64_t hash = 0;
  bool completed = false;
  sim::Duration elapsed = sim::Duration::zero();
  /// Total events fired (informational — NOT part of the hash: partitioned
  /// runs drain their final lookahead window past the completion event, so
  /// raw event counts legitimately differ across modes).
  std::uint64_t events = 0;
};

/// Runs `cfg` to completion with a cluster-wide tracer + event log attached
/// and digests the observable history. The history is truncated at the job's
/// completion time T_c (strictly: interval end < T_c, event t < T_c): after
/// the last rank finishes, a serial run stops immediately while a
/// partitioned run completes its synchronization window, so post-completion
/// daemon activity exists only in the latter and is not part of the
/// equivalence claim.
[[nodiscard]] CanonicalDigest run_canonical(const SimulationConfig& cfg,
                                            const mpi::WorkloadFactory& factory);

/// Instrumented overload: `prepare` runs after the tracer is attached but
/// before the run, with the fully built Simulation — pasched-race uses it to
/// install its seam monitor, window-perturbation source, and planted faults.
/// An empty function behaves exactly like the plain overload.
[[nodiscard]] CanonicalDigest run_canonical(
    const SimulationConfig& cfg, const mpi::WorkloadFactory& factory,
    const std::function<void(Simulation&)>& prepare);

}  // namespace pasched::core
