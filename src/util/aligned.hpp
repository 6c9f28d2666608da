// Cache-line isolation for per-shard state. Adjacent vector elements (or
// struct fields) written by different shard workers share 64-byte lines and
// turn independent writes into coherence traffic — the false-sharing
// pathology pasched-srclint's PSL503 lints for. Wrapping the element in
// CacheAligned pads each instance to its own line.
#pragma once

#include <cstddef>
#include <new>

namespace pasched::util {

/// The coherence granule the PSL503 layout lint assumes. Hardcoded rather
/// than std::hardware_destructive_interference_size so the layout (and the
/// lint's verdict) is identical across toolchains.
inline constexpr std::size_t kCacheLineBytes = 64;

/// One value alone on its cache line(s). Deliberately transparent: `.v` is
/// the value, nothing else. Usable as a vector element — each slot of a
/// per-shard array then owns its line outright.
template <class T>
struct alignas(kCacheLineBytes) CacheAligned {
  T v{};

  CacheAligned() = default;
  explicit CacheAligned(T init) : v(static_cast<T&&>(init)) {}
};

}  // namespace pasched::util
