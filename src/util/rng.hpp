// Deterministic, seedable random number generation for the whole project.
//
// Every stochastic component in the library (world generation, NN
// initialization, k-means seeding, Thompson sampling) takes an explicit
// Rng so experiments are reproducible end-to-end from a single seed.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace anole {

/// xoshiro256** PRNG seeded via splitmix64.
///
/// Small, fast, and high-quality; satisfies UniformRandomBitGenerator so it
/// can also drive <random> distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t uniform_index(std::size_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi) noexcept;

  /// Standard normal via Box-Muller (cached pair).
  double normal() noexcept;

  /// Advances the stream exactly as `n` normal() calls would, without
  /// their log/sqrt/sincos: it consumes a cached half, draws each pair's
  /// uniforms (with normal()'s u1 > 0 rejection) and keeps a leftover
  /// half as its uniform pair, evaluated by the next normal() with the
  /// same expression. Every later draw is bit-identical to the unskipped
  /// stream's.
  void skip_normals(std::size_t n) noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Gamma(shape, 1) via Marsaglia-Tsang; shape > 0.
  double gamma(double shape) noexcept;

  /// Beta(alpha, beta) via two gamma draws; alpha, beta > 0.
  double beta(double alpha, double beta) noexcept;

  /// Bernoulli draw with success probability p in [0, 1].
  bool bernoulli(double p) noexcept;

  /// Poisson draw with rate lambda >= 0 (Knuth for small lambda,
  /// normal approximation above 30).
  int poisson(double lambda) noexcept;

  /// Index drawn proportionally to non-negative weights. Requires at least
  /// one strictly positive weight.
  std::size_t weighted_index(std::span<const double> weights) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    if (items.empty()) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      std::size_t j = uniform_index(i + 1);
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// A new Rng seeded from this one's stream (for independent substreams).
  Rng split() noexcept;

 private:
  /// The Box-Muller pair's second half, held back for the next normal():
  /// as a value, or (after skip_normals) as the uniforms u1, u2 it is
  /// computed from.
  enum class Cached : std::uint8_t { kNone, kValue, kUniforms };

  std::uint64_t state_[4];
  double cached_normal_ = 0.0;  // kValue: the value; kUniforms: u1
  double cached_u2_ = 0.0;      // kUniforms: u2
  Cached cached_ = Cached::kNone;
};

/// Returns a shuffled permutation of [0, n).
std::vector<std::size_t> random_permutation(std::size_t n, Rng& rng);

}  // namespace anole
