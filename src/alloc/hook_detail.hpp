// Internal seam between alloc::Ledger (ledger.cpp) and the operator
// new/delete replacement (hook.cpp). Referencing these symbols is what
// pulls hook.cpp's archive member — and with it the global allocator
// replacement — into a binary, so only Ledger users get the hook. Not part
// of the public alloc API.
#pragma once

#include "util/allocgate.hpp"

#if PASCHED_VALIDATE_ENABLED

#include <cstddef>
#include <cstdint>

namespace pasched::alloc::detail {

struct SiteCell {
  // Indexed by static_cast<int>(util::AllocPhase): [0] cold, [1] hot.
  std::uint64_t allocs[2] = {0, 0};
  std::uint64_t bytes[2] = {0, 0};
  std::uint64_t frees[2] = {0, 0};
};

void note_alloc(std::size_t size) noexcept;
void note_free() noexcept;

void hook_set_counting(bool on) noexcept;
void hook_reset() noexcept;
/// Sums every thread's counters into `out[util::kMaxAllocSites]`.
void hook_snapshot(SiteCell* out) noexcept;

}  // namespace pasched::alloc::detail

#endif  // PASCHED_VALIDATE_ENABLED
