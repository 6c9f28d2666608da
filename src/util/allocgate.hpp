// Allocation attribution gate: the thread-local (site, phase) context the
// allocation ledger (src/alloc) charges heap traffic to. The engine brackets
// its per-event core with PASCHED_ALLOC_HOT_SCOPE sites and its sanctioned
// amortized growth (slab refills, capacity doubling) with
// PASCHED_ALLOC_COLD_REGION, so under -DPASCHED_VALIDATE=ON the global
// operator new/delete hook (src/alloc/hook.cpp) can split every allocation
// into "hot window" vs "barrier/cold" buckets per site; under
// -DPASCHED_VALIDATE=OFF every macro below compiles to nothing and no hook
// exists.
//
// Site kinds:
//   Core      engine/kernel bookkeeping the static analyzer certifies
//             allocation-free (PSL605 claims join these rows by name; a hot
//             allocation here refutes the claim as PSL606)
//   Dispatch  callback execution (application/daemon code run *by* the
//             engine) — measured as workload allocation pressure, never
//             counted against an engine claim
//
// Naming convention: Core sites use the qualified function name
// ("Engine::schedule_at") so PSL605's statically derived claims join the
// runtime rows directly; Dispatch sites use "Class.member" ("Engine.callback").
#pragma once

#include <cstdint>

namespace pasched::util {

enum class AllocPhase : std::uint8_t { Cold = 0, Hot = 1 };
enum class AllocSiteKind : std::uint8_t { Core, Dispatch };

/// Fixed capacity of the site registry: the hook indexes per-thread counter
/// blocks by site id without allocation or locking on the hot path.
inline constexpr int kMaxAllocSites = 64;

/// Registers (or finds) the site named `name`; idempotent by name, capped at
/// kMaxAllocSites (overflow returns the last slot). Cold path. `name` must
/// be a string literal (the registry keeps the pointer).
int register_alloc_site(const char* name, AllocSiteKind kind);
[[nodiscard]] const char* alloc_site_name(int site);
[[nodiscard]] AllocSiteKind alloc_site_kind(int site);
[[nodiscard]] int alloc_site_count();

#if PASCHED_VALIDATE_ENABLED

namespace detail {
// Owned by the current thread; read by the operator new/delete hook on the
// same thread. Site 0 is the implicit "(unscoped)" bucket.
extern thread_local int tl_alloc_site;
extern thread_local AllocPhase tl_alloc_phase;
}  // namespace detail

/// RAII attribution scope: charges allocations on this thread to `site`
/// under `phase` until scope exit, then restores the previous context.
class AllocScope {
 public:
  AllocScope(int site, AllocPhase phase) noexcept
      : prev_site_(detail::tl_alloc_site),
        prev_phase_(detail::tl_alloc_phase) {
    detail::tl_alloc_site = site;
    detail::tl_alloc_phase = phase;
  }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;
  ~AllocScope() {
    detail::tl_alloc_site = prev_site_;
    detail::tl_alloc_phase = prev_phase_;
  }

 private:
  int prev_site_;
  AllocPhase prev_phase_;
};

/// Phase-only override: keeps the current site but charges the region as
/// Cold — the sanctioned-amortized-growth bracket (slab refill, capacity
/// doubling). The allocation still shows on the caller's row, just in the
/// cold bucket, so a claim check (hot-bucket only) is not refuted by growth
/// the discipline explicitly allows.
class AllocColdRegion {
 public:
  AllocColdRegion() noexcept : prev_phase_(detail::tl_alloc_phase) {
    detail::tl_alloc_phase = AllocPhase::Cold;
  }
  AllocColdRegion(const AllocColdRegion&) = delete;
  AllocColdRegion& operator=(const AllocColdRegion&) = delete;
  ~AllocColdRegion() { detail::tl_alloc_phase = prev_phase_; }

 private:
  AllocPhase prev_phase_;
};

// Line-unique variable names so a dispatch scope may nest inside a hot
// scope in the same function (Kernel::on_tick does). Site registration is
// a function-local static: first call registers, later calls are one guard
// load.
#define PASCHED_ALLOC_CAT2(a, b) a##b
#define PASCHED_ALLOC_CAT(a, b) PASCHED_ALLOC_CAT2(a, b)
#define PASCHED_ALLOC_SCOPE_IMPL(name_literal, kind, phase)                  \
  static const int PASCHED_ALLOC_CAT(pasched_alloc_site_id_, __LINE__) =     \
      ::pasched::util::register_alloc_site(name_literal,                     \
                                           ::pasched::util::kind);           \
  const ::pasched::util::AllocScope PASCHED_ALLOC_CAT(pasched_alloc_scope_,  \
                                                      __LINE__)(             \
      PASCHED_ALLOC_CAT(pasched_alloc_site_id_, __LINE__),                   \
      ::pasched::util::phase)

#define PASCHED_ALLOC_HOT_SCOPE(name_literal) \
  PASCHED_ALLOC_SCOPE_IMPL(name_literal, AllocSiteKind::Core, AllocPhase::Hot)
#define PASCHED_ALLOC_COLD_SCOPE(name_literal)                              \
  PASCHED_ALLOC_SCOPE_IMPL(name_literal, AllocSiteKind::Core,               \
                           AllocPhase::Cold)
#define PASCHED_ALLOC_DISPATCH_SCOPE(name_literal)                          \
  PASCHED_ALLOC_SCOPE_IMPL(name_literal, AllocSiteKind::Dispatch,           \
                           AllocPhase::Hot)
#define PASCHED_ALLOC_COLD_REGION() \
  const ::pasched::util::AllocColdRegion pasched_alloc_cold_region_

#else  // !PASCHED_VALIDATE_ENABLED

#define PASCHED_ALLOC_HOT_SCOPE(name_literal) static_cast<void>(0)
#define PASCHED_ALLOC_COLD_SCOPE(name_literal) static_cast<void>(0)
#define PASCHED_ALLOC_DISPATCH_SCOPE(name_literal) static_cast<void>(0)
#define PASCHED_ALLOC_COLD_REGION() static_cast<void>(0)

#endif  // PASCHED_VALIDATE_ENABLED

/// Grows `v` to hold at least `n` elements inside a cold allocation region
/// (capacity doubles, so steady-state callers never re-enter). The helper
/// every hot-path member scratch buffer uses before its push_back loop —
/// the reuse discipline PSL602 certifies.
template <class V>
inline void reserve_cold(V& v, typename V::size_type n) {
  if (v.capacity() >= n) return;
  PASCHED_ALLOC_COLD_REGION();
  typename V::size_type want = v.capacity() == 0 ? 16 : v.capacity() * 2;
  if (want < n) want = n;
  v.reserve(want);
}

}  // namespace pasched::util
