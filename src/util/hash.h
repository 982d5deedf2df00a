#ifndef SKYPREF_UTIL_HASH_H_
#define SKYPREF_UTIL_HASH_H_

/// \file
/// Hash mixing helpers for composite keys (dimension/value pairs and
/// value-pair preference lookups).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>

namespace skypref {

/// 64-bit finalizer (Murmur3 fmix64): decorrelates combined hashes.
inline std::uint64_t HashMix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Combines an existing seed with one more value's hash.
template <typename T>
inline std::size_t HashCombine(std::size_t seed, const T& value) {
  std::uint64_t h = static_cast<std::uint64_t>(std::hash<T>{}(value));
  return static_cast<std::size_t>(
      HashMix(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + h));
}

/// Hash of a sequence of integers (a dataset row), fully mixed so that its
/// low bits can index a power-of-two table.
template <typename T>
inline std::uint64_t HashSpan(std::span<const T> values) {
  std::uint64_t h = 0x811c9dc5;
  for (const T& value : values) {
    h = (h ^ static_cast<std::uint64_t>(value)) * 0x9e3779b97f4a7c15ULL;
  }
  return HashMix(h);
}

/// Hash functor for std::pair keys in unordered containers.
struct PairHash {
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B>& p) const {
    return HashCombine(HashCombine(std::size_t{0x5bd1e995}, p.first), p.second);
  }
};

}  // namespace skypref

#endif  // SKYPREF_UTIL_HASH_H_
