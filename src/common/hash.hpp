#pragma once

#include <cstdint>

namespace fedtrans {

/// splitmix64 finalizer — the hash behind every schedule-independent draw
/// (transport fault injection, device availability). Counter-hashed draws
/// answer the same question identically no matter which thread asks first,
/// which is what keeps fault and availability decisions bit-reproducible
/// under any schedule.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The first three mixing rounds of hash01(a, b, c, ·). A scan drawing
/// hash01 over many `d` for fixed (a, b, c) computes this once and finishes
/// each draw with hash01_from.
inline std::uint64_t hash_prefix(std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c) {
  return mix64(mix64(mix64(a) ^ b) ^ c);
}

/// Finish hash01 from its (a, b, c) prefix: one mixing round.
inline double hash01_from(std::uint64_t prefix, std::uint64_t d) {
  return static_cast<double>(mix64(prefix ^ d) >> 11) * 0x1.0p-53;
}

/// Uniform [0, 1) draw keyed on four counters.
inline double hash01(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                     std::uint64_t d) {
  return hash01_from(hash_prefix(a, b, c), d);
}

}  // namespace fedtrans
