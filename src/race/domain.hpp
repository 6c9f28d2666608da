// Shard-ownership domains: the machine-checked form of the partitioned
// core's implicit discipline (DESIGN §7.1). Every shard-owned object —
// kernels, tasks, daemon state, per-node trace buffers — carries an Owned
// tag naming the shard domain that may mutate it; the sharded engine's
// workers mark the domain they are executing (ScopedDomain), and every
// mutating entry point asserts the executing worker holds the object's
// domain (PASCHED_ASSERT_OWNED).
//
// A context with no domain set (kFreeContext) passes every check: serial
// one-shard runs, construction/setup, and the barrier completion step
// (wrapups) are all quiesced single-threaded contexts where any object may
// legally be touched. The checks compile to nothing unless the build defines
// PASCHED_VALIDATE_ENABLED=1, so release hot paths pay zero cost; the Owned
// fields themselves stay present so object layout is validation-agnostic
// (the engine's Slot::held follows the same rule).
//
// Violations either throw check::CheckError (the hard enforcement mode used
// by tests and CI) or, when a ViolationSink is installed (pasched-race's
// Monitor), are recorded as PSL2xx diagnostics with shard/object/epoch
// attribution and the run continues — an auditing run wants the full list,
// not the first hit.
//
// This header is dependency-free above util/check so that every subsystem
// (sim, kern, daemons, trace, mpi) can annotate without a link cycle; the
// vector-clock checker that consumes the reports lives in race/monitor.hpp.
#pragma once

#include <atomic>
#include <cstdint>

#include "check/check.hpp"

namespace pasched::race {

/// A shard domain: the shard id of the owning event shard, which is the
/// node block's index (0..blocks-1; a one-block map's shard is 0).
using Domain = int;

/// No worker scope is active on this thread: setup, teardown, the barrier
/// completion step, and every serial (one-shard) run.
inline constexpr Domain kFreeContext = -1;

/// The object has not been bound to a domain (hand-built test fixtures);
/// all accesses pass.
inline constexpr Domain kUnbound = -2;

/// The domain the calling thread currently executes for (kFreeContext when
/// none). Set exclusively by sim::ShardedEngine workers via ScopedDomain.
[[nodiscard]] Domain current_domain() noexcept;

/// RAII scope marking this thread as executing `d`'s events. Nestable;
/// restores the previous domain on destruction.
class ScopedDomain {
 public:
  explicit ScopedDomain(Domain d) noexcept;
  ~ScopedDomain();
  ScopedDomain(const ScopedDomain&) = delete;
  ScopedDomain& operator=(const ScopedDomain&) = delete;

 private:
  Domain prev_;
};

/// One ownership violation, as observed at a mutating entry point.
struct Violation {
  const char* label = "?";  // object class, e.g. "kern.Kernel"
  int id = -1;              // instance (node id, rank, ...)
  Domain owner = kUnbound;
  Domain accessor = kFreeContext;
  /// FastTrack-style last-access epoch of the object (kUnbound/0 when the
  /// object was never accessed under a monitor, or carries no epoch).
  Domain last_domain = kUnbound;
  std::uint64_t last_clock = 0;
  const char* what = "?";  // the entry point, e.g. "wake"
};

/// Receiver for violations and the per-domain epoch clocks backing them.
/// race::Monitor implements this; installing one switches enforcement from
/// throw-on-violation to collect-and-continue.
class ViolationSink {
 public:
  virtual ~ViolationSink() = default;
  /// Called from the accessing worker's thread; must be thread-safe.
  virtual void report(const Violation& v) = 0;
  /// Current epoch clock of `d` (0 if out of range). Called from d's own
  /// worker thread only.
  [[nodiscard]] virtual std::uint64_t clock_of(Domain d) noexcept = 0;
};

/// Installs (or clears, with nullptr) the process-wide sink. Not
/// thread-safe against concurrent install; install before running and clear
/// after — SinkScope does both.
void install_sink(ViolationSink* s) noexcept;
[[nodiscard]] ViolationSink* sink() noexcept;

/// RAII install/clear of the process-wide sink.
class SinkScope {
 public:
  explicit SinkScope(ViolationSink* s) noexcept { install_sink(s); }
  ~SinkScope() { install_sink(nullptr); }
  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;
};

/// The ownership tag embedded in every annotated object. bind() names the
/// owning domain (typically the object's EventContext shard) at
/// construction; on_access() is the checked mutating-entry-point hook —
/// call it through PASCHED_ASSERT_OWNED so it compiles away when validation
/// is off. The last-access epoch is a relaxed atomic: racing accesses are
/// exactly what it exists to witness, and the witness itself must not be a
/// data race.
class Owned {
 public:
  Owned() = default;
  Owned(const Owned&) = delete;
  Owned& operator=(const Owned&) = delete;

  void bind(Domain d, const char* label, int id) noexcept {
    domain_ = d;
    label_ = label;
    id_ = id;
  }
  [[nodiscard]] Domain domain() const noexcept { return domain_; }
  [[nodiscard]] const char* label() const noexcept { return label_; }
  [[nodiscard]] int id() const noexcept { return id_; }

  /// Asserts the calling thread may mutate this object; stamps the
  /// last-access epoch when a sink is installed. Throws check::CheckError
  /// on violation when no sink is installed.
  void on_access(const char* what) const;

 private:
  Domain domain_ = kUnbound;
  const char* label_ = "?";
  int id_ = -1;
  /// Packed (domain + 3, clock + 1); 0 = never accessed.
  mutable std::atomic<std::uint64_t> last_epoch_{0};

  friend struct EpochCodec;
};

/// Epoch packing shared with the monitor: 16 bits of (domain + 3) so
/// kFreeContext/kUnbound encode, 48 bits of (clock + 1).
struct EpochCodec {
  [[nodiscard]] static std::uint64_t pack(Domain d, std::uint64_t clock) {
    return ((clock + 1) << 16) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(d + 3)) &
            0xffffU);
  }
  [[nodiscard]] static Domain domain_of(std::uint64_t e) {
    return static_cast<Domain>(static_cast<int>(e & 0xffffU)) - 3;
  }
  [[nodiscard]] static std::uint64_t clock_of(std::uint64_t e) {
    return (e >> 16) - 1;
  }
};

/// Container form of the same check, for per-node buffers that have no
/// Owned member per element (trace::EventLog buckets, Tracer per-node
/// state). `owner` is the owning domain — for per-node state this is the
/// shard the node maps to (its kernel's EventContext shard), which holds a
/// whole block of nodes. No epoch is tracked, so violations report as
/// ownership breaches (PSL201) without a race classification.
void assert_write_domain(Domain owner, const char* label, int id,
                         const char* what);

}  // namespace pasched::race

#if PASCHED_VALIDATE_ENABLED
#define PASCHED_ASSERT_OWNED(owned, what) (owned).on_access(what)
#define PASCHED_ASSERT_DOMAIN(owner, label, id, what) \
  ::pasched::race::assert_write_domain((owner), (label), (id), (what))
#else
// Off: compiled out entirely — the call sits inside a sizeof (unevaluated
// operand), so the expansion is a compile-time constant with zero codegen,
// while the arguments are still parsed and type-checked against the real
// signature, so an invalid expression cannot bit-rot unnoticed (same
// contract as PASCHED_CHECK).
#define PASCHED_ASSERT_OWNED(owned, what)                       \
  do {                                                          \
    static_cast<void>(sizeof(((owned).on_access(what), 0)));    \
  } while (0)
#define PASCHED_ASSERT_DOMAIN(owner, label, id, what)                     \
  do {                                                                    \
    static_cast<void>(sizeof((::pasched::race::assert_write_domain(       \
                                  (owner), (label), (id), (what)),        \
                              0)));                                       \
  } while (0)
#endif  // PASCHED_VALIDATE_ENABLED
