// The runtime half of the PSL50x rules: a contention ledger hanging off the
// util::SeamMutex/SeamBarrier observer hooks. Per site (by registered name)
// it records acquire counts, contended acquires, wait time, hold time, and
// the set of race::Domains observed acquiring — the measurements that (a)
// rank the partitioned core's serialization sites on fig5 parallel8 (the
// work-list for the ROADMAP item-1 PARSIR-style rework) and (b) police the
// static analyzer's PSL505 single-domain serialization claims: a claim
// acquired from two or more domains at runtime is refuted as PSL506,
// mirroring the PSL303 certify-then-verify pattern.
//
// Sampling is window-granular by construction: every measured seam sits on
// the window protocol (inbox drains, plan barrier), so the report
// normalizes waits per barrier crossing rather than per wall second.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "util/aligned.hpp"
#include "util/seam.hpp"

namespace pasched::contend {

/// A PSL505 serialization claim from the static analyzer: the mutex at
/// `site` ("Class.member", the seam registry naming convention) guards
/// state whose race::Owned tag suggests single-domain ownership.
struct SerializationClaim {
  std::string site;
  std::string file;  // where the static analyzer saw the declaration
  int line = 0;
};

/// One ledger row.
struct SiteSummary {
  std::string name;
  util::SeamKind kind = util::SeamKind::Mutex;
  std::uint64_t acquires = 0;   // barrier rows: arrive_and_wait crossings
  std::uint64_t contended = 0;
  std::uint64_t wait_ns = 0;
  std::uint64_t hold_ns = 0;
  std::uint64_t max_wait_ns = 0;
  int domains_observed = 0;  // distinct race::Domains seen acquiring
  double wait_share = 0;     // of total recorded wait across all sites
};

struct LedgerReport {
  std::vector<SiteSummary> sites;  // sorted by wait_ns, descending
  /// Per-worker arrive_and_wait crossings at the busiest barrier site
  /// (= windows × phases × workers for the engine's two-phase protocol).
  std::uint64_t barrier_crossings = 0;
  std::uint64_t total_wait_ns = 0;
  double barrier_wait_share = 0;   // barrier wait / total recorded wait

  [[nodiscard]] std::string str() const;
  /// The report as a JSON object (no schema header — the tool wraps it).
  [[nodiscard]] std::string json(int indent) const;
};

/// Lock-free per-site accumulator. Install with util::install_seam_observer
/// before run_until, read with report() after; reset() between runs.
class Ledger final : public util::SeamObserver {
 public:
  Ledger() = default;

  void on_acquire(int site, std::uint64_t wait_ns,
                  bool contended) noexcept override;
  void on_release(int site, std::uint64_t hold_ns) noexcept override;
  void on_barrier_wait(int site, std::uint64_t wait_ns) noexcept override;
  /// Horizon-spin (SeamKind::Wait) seams: priced into the per-site rows and
  /// the total wait, but *not* into barrier_wait_share — replacing barrier
  /// time with neighbor-only waits is exactly the improvement that share
  /// exists to measure, so the two must stay separable.
  void on_wait(int site, std::uint64_t wait_ns) noexcept override;

  void reset() noexcept;
  [[nodiscard]] LedgerReport report() const;

  /// The certify-then-verify join: every claim whose site the ledger saw
  /// acquired from two or more distinct domains is refuted with a PSL506
  /// ERROR. Unobserved sites produce nothing (no run touched them).
  [[nodiscard]] std::vector<analysis::Diagnostic> check_claims(
      const std::vector<SerializationClaim>& claims) const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> acquires{0};
    std::atomic<std::uint64_t> contended{0};
    std::atomic<std::uint64_t> wait_ns{0};
    std::atomic<std::uint64_t> hold_ns{0};
    std::atomic<std::uint64_t> max_wait_ns{0};
    /// Bit (domain + 2), clamped to 63: bit 0 = kUnbound, 1 = kFreeContext.
    std::atomic<std::uint64_t> domain_mask{0};
  };

  [[nodiscard]] Slot& slot(int site) noexcept {
    return slots_[static_cast<std::size_t>(
                      site < 0 ? 0 : site % util::kMaxSeamSites)]
        .v;
  }
  [[nodiscard]] const Slot& slot(int site) const noexcept {
    return slots_[static_cast<std::size_t>(
                      site < 0 ? 0 : site % util::kMaxSeamSites)]
        .v;
  }

  /// One slot per cache line: the ledger must not itself false-share the
  /// counters it exists to measure (PSL503 practices what it preaches).
  std::array<util::CacheAligned<Slot>, util::kMaxSeamSites> slots_{};
};

}  // namespace pasched::contend
