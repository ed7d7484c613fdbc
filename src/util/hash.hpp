// Deterministic non-cryptographic hashing: persisted digests and
// in-memory state fingerprints.
//
// Two families with different contracts:
//
//   * Digests (fnv1a, digest_mix, digest_range) are byte-wise FNV-1a.
//     They are persisted -- trace digests in counterexample artifacts,
//     plan digests pinned by tests -- so their values are frozen: never
//     change them.
//
//   * Fingerprints (hash_mix, hash_range) identify simulator states
//     inside one process: the schedule explorer's prune cache, the
//     linearizability oracle's memo. They fold a whole 64-bit word per
//     multiply, may change between versions, and must never be
//     persisted. A collision makes the explorer prune a state it has not
//     seen, so the mixer must diffuse every input bit into the whole
//     word; a cheap xor-multiply chain is not enough.
//
// Both are stable across platforms and standard libraries (std::hash is
// not).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

namespace tbwf::util {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// FNV-1a over a byte range, continuing from `seed`.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t seed = kFnvOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view s,
                           std::uint64_t seed = kFnvOffset) {
  return fnv1a(s.data(), s.size(), seed);
}

namespace detail {

/// Integral or enum value widened to 64 bits, so a digest does not
/// depend on the caller's choice of integer width.
template <class T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
std::uint64_t widen(T value) {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<std::uint64_t>(
        static_cast<std::make_unsigned_t<std::underlying_type_t<T>>>(value));
  } else if constexpr (std::is_same_v<T, bool>) {
    return value ? 1 : 0;
  } else {
    return static_cast<std::uint64_t>(
        static_cast<std::make_unsigned_t<T>>(value));
  }
}

}  // namespace detail

// -- persisted digests (frozen values) ----------------------------------------

/// Fold one integral value into a running digest: FNV-1a over its eight
/// little-endian bytes.
template <class T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
std::uint64_t digest_mix(std::uint64_t seed, T value) {
  const std::uint64_t v = detail::widen(value);
  return fnv1a(&v, sizeof(v), seed);
}

/// Fold a range of integral values into a running digest, length first
/// (so {1,2} and {1,2,0} differ even when the tail is zero).
template <class Range>
std::uint64_t digest_range(std::uint64_t seed, const Range& range) {
  seed = digest_mix(seed, static_cast<std::uint64_t>(range.size()));
  for (const auto& v : range) seed = digest_mix(seed, v);
  return seed;
}

// -- in-memory fingerprints (never persisted) ---------------------------------

/// Secrets of the word mixer (wyhash's first two).
inline constexpr std::uint64_t kMixSeedKey = 0xA0761D6478BD642FULL;
inline constexpr std::uint64_t kMixValueKey = 0xE7037ED1A0B428DBULL;

/// Fold one integral value into a running fingerprint: one 64x64->128
/// multiply of the keyed seed by the keyed value, high and low halves
/// xored (the "mum" step of the wyhash family), so every input bit
/// reaches every output bit in one step. Seed and value enter as
/// separate factors, not as seed ^ value: harnesses fold digests built
/// by this same chain, and a digest equal to the running seed must not
/// cancel it out.
template <class T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
std::uint64_t hash_mix(std::uint64_t seed, T value) {
  const unsigned __int128 p =
      static_cast<unsigned __int128>(seed ^ kMixSeedKey) *
      (detail::widen(value) ^ kMixValueKey);
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

/// Fold a range of integral values into a running fingerprint, length
/// first.
template <class Range>
std::uint64_t hash_range(std::uint64_t seed, const Range& range) {
  seed = hash_mix(seed, static_cast<std::uint64_t>(range.size()));
  for (const auto& v : range) seed = hash_mix(seed, v);
  return seed;
}

}  // namespace tbwf::util
