// FNV-1a (64-bit), the hash behind the determinism digests:
// core::run_canonical's canonical-history digest and pasched-audit's
// reproducibility hash. Integers fold in as their 8 bytes, low byte first;
// strings as their bytes followed by their length; doubles as their bit
// pattern.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace pasched::util {

class Fnv1a {
 public:
  void mix(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= kPrime;
    }
  }
  void mix_int(std::int64_t v) noexcept { mix(static_cast<std::uint64_t>(v)); }
  void mix_double(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  void mix_str(std::string_view s) noexcept {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= kPrime;
    }
    mix(s.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace pasched::util
