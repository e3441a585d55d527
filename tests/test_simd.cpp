// AVX2 kernel contracts that hold for every entry point in tensor/simd.hpp:
// each returns with clean upper-YMM state, and the k-means distances are
// bitwise identical to the scalar level, as the header promises.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "tensor/simd.hpp"
#include "util/rng.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#include <cpuid.h>
#define ANOLE_TEST_XINUSE 1
#else
#define ANOLE_TEST_XINUSE 0
#endif

namespace anole {
namespace {

std::vector<float> uniform_floats(std::size_t n, Rng& rng) {
  std::vector<float> values(n);
  for (float& v : values) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return values;
}

#if ANOLE_TEST_XINUSE
/// Bit 2 of XINUSE: the upper halves of the YMM registers are not in
/// their initial (zero) state.
constexpr std::uint64_t kYmmHi128 = 1u << 2;

/// True when XGETBV with ECX = 1 (the XINUSE bitmap) is available.
bool xinuse_readable() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & (1u << 27)) == 0) {
    return false;  // no OSXSAVE: XGETBV would fault
  }
  if (__get_cpuid_count(0xD, 1, &a, &b, &c, &d) == 0) return false;
  return (a & (1u << 2)) != 0;
}

std::uint64_t xinuse() {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(1u));
  return (std::uint64_t{edx} << 32) | eax;
}

void clear_upper_state() { __asm__ volatile("vzeroupper"); }

/// XINUSE read right after writing ones into ymm0's upper half, in one asm
/// statement so no vzeroupper can come between: the state every AVX2
/// kernel must not return with.
std::uint64_t xinuse_when_dirty() {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ volatile("vpcmpeqd %%ymm0, %%ymm0, %%ymm0\n\txgetbv"
                   : "=a"(eax), "=d"(edx)
                   : "c"(1u)
                   : "xmm0");
  return (std::uint64_t{edx} << 32) | eax;
}

/// Runs `kernel` from clean upper state and reports whether it returned
/// with dirty upper state.
::testing::AssertionResult exits_clean(const std::string& name,
                                       const std::function<void()>& kernel) {
  clear_upper_state();
  kernel();
  const std::uint64_t state = xinuse();
  if ((state & kYmmHi128) == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << name << " returned with dirty upper-YMM state (XINUSE 0x"
         << std::hex << state << ")";
}

TEST(SimdKernelExit, EveryAvx2EntryPointReturnsWithCleanUpperState) {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  if (!xinuse_readable()) GTEST_SKIP() << "XGETBV(1) (XINUSE) unsupported";
  // The probe must see dirty state when there is some, or it proves
  // nothing (a hypervisor may report a constant).
  clear_upper_state();
  const std::uint64_t dirty = xinuse_when_dirty();
  clear_upper_state();
  if ((dirty & kYmmHi128) == 0 || (xinuse() & kYmmHi128) != 0) {
    GTEST_SKIP() << "XINUSE does not track YMM_Hi128 here (0x" << std::hex
                 << dirty << ")";
  }

  constexpr simd::Level kAvx2 = simd::Level::kAVX2;
  Rng rng(2718);
  // fp32 GEMM: every narrow width (n <= 64, each row-group shape and its
  // one-row remainder: 9 rows) and the blocked path on both sides of the
  // 256-column block.
  constexpr std::size_t kRows = 9;
  constexpr std::size_t kDepth = 5;
  const std::vector<float> a = uniform_floats(kRows * kDepth, rng);
  for (std::size_t n = 1; n <= 300; n = n < 64 ? n + 1 : n + 118) {
    const std::vector<float> b = uniform_floats(kDepth * n, rng);
    std::vector<float> c(kRows * n);
    EXPECT_TRUE(exits_clean("gemm_rows n=" + std::to_string(n), [&] {
      simd::gemm_rows(kAvx2, 0, kRows, kDepth, n, a.data(), kDepth, 1,
                      b.data(), c.data());
    }));
  }

  // int8: quantize a row (full chunks and a masked tail), then the GEMM.
  constexpr std::size_t kDepthQ = 42;
  constexpr std::size_t kPadded = 48;
  constexpr std::size_t kChannels = 7;
  const std::vector<float> row = uniform_floats(kDepthQ, rng);
  std::vector<std::int16_t> xq(kRows * kPadded, 0);
  std::vector<float> xscale(kRows, 0.0f);
  EXPECT_TRUE(exits_clean("quantize_row_int16", [&] {
    xscale[0] = simd::quantize_row_int16(kAvx2, row, xq.data(), kPadded);
  }));
  for (std::size_t i = 1; i < kRows; ++i) {
    xscale[i] = simd::quantize_row_int16(simd::Level::kScalar, row,
                                         xq.data() + i * kPadded, kPadded);
  }
  std::vector<std::int16_t> w(kChannels * kPadded);
  for (std::int16_t& v : w) {
    v = static_cast<std::int16_t>(rng.uniform_int(-127, 127));
  }
  const std::vector<float> wscale(kChannels, 0.01f);
  const std::vector<float> bias = uniform_floats(kChannels, rng);
  std::vector<float> y(kRows * kChannels);
  EXPECT_TRUE(exits_clean("qgemm_rows", [&] {
    simd::qgemm_rows(kAvx2, 0, kRows, kChannels, kPadded, xq.data(),
                     xscale.data(), w.data(), wscale.data(), bias.data(),
                     y.data());
  }));

  // Sigmoid/BCE: a vector body and a libm tail.
  const std::vector<float> z = uniform_floats(13, rng);
  std::vector<float> p(z.size());
  std::vector<float> log_term(z.size());
  EXPECT_TRUE(exits_clean("sigmoid_terms", [&] {
    simd::sigmoid_terms(kAvx2, z.data(), z.size(), p.data(), log_term.data());
  }));

  constexpr std::size_t kDims = 6;
  constexpr std::size_t kStride = 8;
  const std::vector<float> point = uniform_floats(kDims, rng);
  std::vector<double> centroids_t(kDims * kStride);
  for (double& v : centroids_t) v = rng.uniform(-1.0, 1.0);
  std::vector<double> dist(kStride);
  EXPECT_TRUE(exits_clean("kmeans_distances", [&] {
    simd::kmeans_distances(kAvx2, point.data(), kDims, centroids_t.data(),
                           kStride, dist.data());
  }));
}
#endif  // ANOLE_TEST_XINUSE

/// The classic per-centroid loop the header names as the reference:
/// (double(point[d]) - c)² added in ascending d, one rounding per multiply
/// and per add.
std::vector<double> reference_distances(const float* point, std::size_t dims,
                                        const std::vector<double>& ct,
                                        std::size_t k_stride) {
  std::vector<double> dist(k_stride, 0.0);
  for (std::size_t j = 0; j < k_stride; ++j) {
    double sum = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double diff = static_cast<double>(point[d]) - ct[d * k_stride + j];
      const volatile double square = diff * diff;  // no fused multiply-add
      sum += square;
    }
    dist[j] = sum;
  }
  return dist;
}

/// 200 points against 16 centroids in 48 dimensions: 3200 distances, each
/// 48 accumulation steps long.
TEST(KMeansDistances, BitwiseIdenticalAtEveryLevel) {
  constexpr std::size_t kPoints = 200;
  constexpr std::size_t kDims = 48;
  constexpr std::size_t kStride = 16;
  Rng rng(4242);
  std::vector<double> centroids_t(kDims * kStride);
  for (double& v : centroids_t) {
    v = static_cast<double>(static_cast<float>(rng.normal(0.0, 2.0)));
  }
  const std::vector<float> points = [&] {
    std::vector<float> values(kPoints * kDims);
    for (float& v : values) v = static_cast<float>(rng.normal(0.0, 2.0));
    return values;
  }();
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::detected_level() >= simd::Level::kAVX2) {
    levels.push_back(simd::Level::kAVX2);
  }
  for (simd::Level level : levels) {
    std::size_t differing = 0;
    std::vector<double> dist(kStride);
    for (std::size_t i = 0; i < kPoints; ++i) {
      const float* point = points.data() + i * kDims;
      simd::kmeans_distances(level, point, kDims, centroids_t.data(), kStride,
                             dist.data());
      const std::vector<double> expected =
          reference_distances(point, kDims, centroids_t, kStride);
      differing += static_cast<std::size_t>(std::memcmp(
                       dist.data(), expected.data(),
                       kStride * sizeof(double)) != 0);
    }
    EXPECT_EQ(differing, 0u) << simd::level_name(level) << ": " << differing
                             << " of " << kPoints
                             << " points have a distance off the reference";
  }
}

}  // namespace
}  // namespace anole
