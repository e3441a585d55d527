// 64-bit FNV-1a over a sequence of 64-bit words. Every replay trace hash
// (fault, governor, drift, scenario) and the benches' result digests fold
// their fields through this one mixer, so equal hashes mean equal word
// sequences under one definition.
#pragma once

#include <cstdint>

namespace anole {

class Fnv1a {
 public:
  /// Folds the eight bytes of `word`, least significant first.
  constexpr void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xFFu;
      hash_ *= kPrime;
    }
  }

  /// The hash so far; the offset basis for an empty sequence.
  constexpr std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint64_t kOffsetBasis = 0xCBF29CE484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001B3ULL;

  std::uint64_t hash_ = kOffsetBasis;
};

}  // namespace anole
