#ifndef SEMANDAQ_COMMON_HASH_H_
#define SEMANDAQ_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace semandaq::common {

/// Mixes `value` into `seed` (boost::hash_combine recipe, 64-bit constant).
inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2));
}

/// Hashes any std::hash-able value into an accumulator.
template <typename T>
size_t HashMix(size_t seed, const T& v) {
  return HashCombine(seed, std::hash<T>{}(v));
}

/// The splitmix64 step: golden-gamma increment + full-avalanche finalizer.
/// The mixer of the storage checksum (storage::Checksum64); kept here so
/// anything else needing a cheap, statistically strong 64-bit mix shares
/// the constants.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace semandaq::common

#endif  // SEMANDAQ_COMMON_HASH_H_
