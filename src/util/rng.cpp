#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace anole {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t v, int k) noexcept {
  return (v << k) | (v >> (64 - k));
}

/// The polar form of one Box-Muller pair. Both halves of a pair come from
/// these expressions, whether normal() evaluates them at once or a skipped
/// pair's leftover half is evaluated later.
struct BoxMuller {
  double r;
  double theta;
  double cos_half() const noexcept { return r * std::cos(theta); }
  double sin_half() const noexcept { return r * std::sin(theta); }
};

BoxMuller box_muller(double u1, double u2) noexcept {
  return {std::sqrt(-2.0 * std::log(u1)), 2.0 * std::numbers::pi * u2};
}

/// The uniforms of one Box-Muller pair: u1 in (0, 1), u2 in [0, 1).
struct UniformPair {
  double u1;
  double u2;
};

UniformPair draw_uniform_pair(Rng& rng) noexcept {
  double u1 = 0.0;
  do {
    u1 = rng.uniform();
  } while (u1 <= 0.0);
  return {u1, rng.uniform()};
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random bits into [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::size_t Rng::uniform_index(std::size_t n) noexcept {
  assert(n > 0);
  // Rejection-free modulo bias is negligible for n << 2^64; use
  // multiply-shift for uniformity.
  return static_cast<std::size_t>(uniform() * static_cast<double>(n)) % n;
}

int Rng::uniform_int(int lo, int hi) noexcept {
  assert(lo <= hi);
  return lo + static_cast<int>(uniform_index(
                  static_cast<std::size_t>(hi - lo) + 1));
}

double Rng::normal() noexcept {
  switch (cached_) {
    case Cached::kValue:
      cached_ = Cached::kNone;
      return cached_normal_;
    case Cached::kUniforms:
      cached_ = Cached::kNone;
      return box_muller(cached_normal_, cached_u2_).sin_half();
    case Cached::kNone:
      break;
  }
  const UniformPair uniforms = draw_uniform_pair(*this);
  const BoxMuller pair = box_muller(uniforms.u1, uniforms.u2);
  cached_normal_ = pair.sin_half();
  cached_ = Cached::kValue;
  return pair.cos_half();
}

void Rng::skip_normals(std::size_t n) noexcept {
  if (n == 0) return;
  if (cached_ != Cached::kNone) {
    cached_ = Cached::kNone;
    --n;
  }
  for (; n >= 2; n -= 2) (void)draw_uniform_pair(*this);
  if (n == 1) {
    const UniformPair uniforms = draw_uniform_pair(*this);
    cached_normal_ = uniforms.u1;
    cached_u2_ = uniforms.u2;
    cached_ = Cached::kUniforms;
  }
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::gamma(double shape) noexcept {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape + 1 then scale back (Marsaglia-Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::beta(double alpha, double beta_param) noexcept {
  const double x = gamma(alpha);
  const double y = gamma(beta_param);
  const double sum = x + y;
  return sum > 0.0 ? x / sum : 0.5;
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

int Rng::poisson(double lambda) noexcept {
  assert(lambda >= 0.0);
  if (lambda <= 0.0) return 0;
  if (lambda > 30.0) {
    const double draw = normal(lambda, std::sqrt(lambda));
    return draw < 0.0 ? 0 : static_cast<int>(draw + 0.5);
  }
  const double limit = std::exp(-lambda);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform();
  } while (p > limit);
  return k - 1;
}

std::size_t Rng::weighted_index(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w > 0.0 ? w : 0.0;
  assert(total > 0.0);
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

Rng Rng::split() noexcept { return Rng((*this)()); }

std::vector<std::size_t> random_permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  rng.shuffle(perm);
  return perm;
}

}  // namespace anole
