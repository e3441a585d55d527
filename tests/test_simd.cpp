// AVX2 kernel contracts that hold for every entry point in tensor/simd.hpp:
// each returns with clean upper-YMM state, the narrow fp32 GEMM equals the
// zero-skipping fused loop bit for bit, and the k-means distances are
// bitwise identical to the scalar level, as the header promises.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
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
  // Each width runs twice: with B finite (the narrow kernels drop the
  // zero test) and with an inf in B (they keep it).
  for (std::size_t n = 1; n <= 300; n = n < 64 ? n + 1 : n + 118) {
    std::vector<float> b = uniform_floats(kDepth * n, rng);
    std::vector<float> c(kRows * n);
    for (const char* path : {"finite B", "inf in B"}) {
      EXPECT_TRUE(exits_clean(
          "gemm_rows n=" + std::to_string(n) + " " + path, [&] {
            simd::gemm_rows(kAvx2, 0, kRows, kDepth, n, a.data(), kDepth, 1,
                            b.data(), c.data());
          }));
      b[n / 2] = std::numeric_limits<float>::infinity();
    }
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

std::uint32_t float_bits(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// The result the AVX2 GEMM must reproduce bit for bit: per output
/// element, one std::fmaf per k from +0, kk ascending, skipping zero
/// coefficients.
std::vector<float> skipping_fma_reference(std::size_t m, std::size_t k,
                                          std::size_t n, const float* a,
                                          std::size_t ars, std::size_t acs,
                                          const float* b) {
  std::vector<float> c(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = a[i * ars + kk * acs];
        if (aik == 0.0f) continue;
        acc = std::fmaf(aik, b[kk * n + j], acc);
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

/// Operands built to catch a zero coefficient that changes a bit. B rows:
/// 0 holds 1e-30 (times A's -1e-30 it underflows to -0), 1 holds +1 (a
/// zero coefficient there turns an accumulated -0 into +0), 2 and 3 hold
/// x and -x (their sum cancels to exactly +0), 4 holds -0, the rest are
/// uniform with every third entry -0. A rows: all +0, all -0, the
/// underflow row, two cancelling rows, then ReLU-sparse rows whose zeros
/// alternate in sign.
struct ZeroSignCase {
  static constexpr std::size_t kRows = 19;
  static constexpr std::size_t kDepth = 12;
  std::vector<float> a;  // kRows x kDepth, row-major
  std::vector<float> b;  // kDepth x n

  ZeroSignCase(std::size_t n, Rng& rng)
      : a(kRows * kDepth, 0.0f), b(kDepth * n) {
    for (std::size_t j = 0; j < n; ++j) {
      const float x = static_cast<float>(rng.uniform(0.5, 2.0));
      b[0 * n + j] = 1e-30f;
      b[1 * n + j] = 1.0f;
      b[2 * n + j] = x;
      b[3 * n + j] = -x;
      b[4 * n + j] = -0.0f;
      for (std::size_t kk = 5; kk < kDepth; ++kk) {
        b[kk * n + j] = (kk + j) % 3 == 0
                            ? -0.0f
                            : static_cast<float>(rng.uniform(-1.0, 1.0));
      }
    }
    for (std::size_t kk = 0; kk < kDepth; ++kk) a[1 * kDepth + kk] = -0.0f;
    a[2 * kDepth + 0] = -1e-30f;  // the rest of row 2 is +0
    for (std::size_t r : {3u, 4u}) {
      a[r * kDepth + 2] = 2.0f;
      a[r * kDepth + 3] = 2.0f;
      a[r * kDepth + 1] = r == 3 ? 0.0f : -0.0f;
    }
    for (std::size_t r = 5; r < kRows; ++r) {
      for (std::size_t kk = 0; kk < kDepth; ++kk) {
        const float v = static_cast<float>(rng.uniform(-1.0, 1.0));
        a[r * kDepth + kk] = v > 0.0f ? v : ((r + kk) % 2 == 0 ? 0.0f : -0.0f);
      }
    }
  }

  /// A stored transposed (kDepth x kRows), for the acs = m layout.
  std::vector<float> a_transposed() const {
    std::vector<float> at(a.size());
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t kk = 0; kk < kDepth; ++kk) {
        at[kk * kRows + r] = a[r * kDepth + kk];
      }
    }
    return at;
  }
};

/// Runs rows [0, m) of the GEMM at AVX2 in both A layouts and counts the
/// outputs whose bits differ from the skipping reference.
std::size_t avx2_mismatches(const ZeroSignCase& c, std::size_t m,
                            std::size_t n) {
  constexpr std::size_t kDepth = ZeroSignCase::kDepth;
  const std::vector<float> expected = skipping_fma_reference(
      m, kDepth, n, c.a.data(), kDepth, 1, c.b.data());
  const std::vector<float> at = c.a_transposed();
  std::size_t mismatches = 0;
  for (const bool transposed : {false, true}) {
    std::vector<float> out(m * n, 1.0f);
    simd::gemm_rows(simd::Level::kAVX2, 0, m, kDepth, n,
                    transposed ? at.data() : c.a.data(),
                    transposed ? 1 : kDepth,
                    transposed ? ZeroSignCase::kRows : 1, c.b.data(),
                    out.data());
    for (std::size_t e = 0; e < out.size(); ++e) {
      if (float_bits(out[e]) != float_bits(expected[e])) {
        ++mismatches;
        ADD_FAILURE() << (transposed ? "acs = m" : "acs = 1") << " m=" << m
                      << " n=" << n << " row " << e / n << " col " << e % n
                      << ": " << out[e] << " vs " << expected[e];
      }
    }
  }
  return mismatches;
}

/// Every narrow width (n = 1..64), a multi-row-group call (19 rows) and a
/// single-row call, both A layouts: the AVX2 result equals the zero-
/// skipping fmaf loop bit for bit, -0 outputs and the underflow row
/// included.
TEST(NarrowGemm, MatchesZeroSkippingFmaBitwise) {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  Rng rng(1789);
  std::size_t negative_zeros = 0;
  for (std::size_t n = 1; n <= 64; ++n) {
    const ZeroSignCase c(n, rng);
    for (std::size_t m : {std::size_t{1}, ZeroSignCase::kRows}) {
      ASSERT_EQ(avx2_mismatches(c, m, n), 0u) << "n=" << n << " m=" << m;
    }
    const std::vector<float> expected = skipping_fma_reference(
        ZeroSignCase::kRows, ZeroSignCase::kDepth, n, c.a.data(),
        ZeroSignCase::kDepth, 1, c.b.data());
    for (float v : expected) negative_zeros += float_bits(v) == 0x80000000u;
  }
  // The underflow row makes -0 outputs the kernel must keep.
  EXPECT_GT(negative_zeros, 0u);
}

/// inf and NaN in B next to zero coefficients: the skip must hold, so the
/// non-finite entries reach no output whose coefficient is zero.
TEST(NarrowGemm, NonFiniteBBesideZeroCoefficientsKeepsSkipResult) {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  Rng rng(1790);
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t n = 1; n <= 64; ++n) {
    ZeroSignCase c(n, rng);
    // Row 6 of B: inf, -inf and NaN. Only A rows 5.. can have a nonzero
    // coefficient there; zero it in half of them.
    for (std::size_t j = 0; j < n; ++j) {
      c.b[6 * n + j] = j % 3 == 0 ? inf : (j % 3 == 1 ? -inf : std::nanf(""));
    }
    for (std::size_t r = 5; r < ZeroSignCase::kRows; r += 2) {
      c.a[r * ZeroSignCase::kDepth + 6] = r % 4 == 1 ? 0.0f : -0.0f;
    }
    for (std::size_t m : {std::size_t{1}, ZeroSignCase::kRows}) {
      ASSERT_EQ(avx2_mismatches(c, m, n), 0u) << "n=" << n << " m=" << m;
    }
  }
}

#if ANOLE_TEST_XINUSE
/// MXCSR's sticky underflow flag (bit 4).
constexpr std::uint32_t kUnderflowFlag = 0x10;

std::uint32_t read_mxcsr() {
  std::uint32_t csr = 0;
  __asm__ volatile("stmxcsr %0" : "=m"(csr));
  return csr;
}

void write_mxcsr(std::uint32_t csr) {
  __asm__ volatile("ldmxcsr %0" : : "m"(csr));
}

/// The narrow kernels clear the underflow flag to watch their own run;
/// the caller's flag comes back as it was, and a GEMM that underflows
/// leaves it raised.
TEST(NarrowGemm, KeepsTheCallersUnderflowFlag) {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  Rng rng(1791);
  constexpr std::size_t kN = 16;
  ZeroSignCase c(kN, rng);
  std::vector<float> out(ZeroSignCase::kRows * kN);
  const auto run = [&](std::size_t first_row) {
    simd::gemm_rows(simd::Level::kAVX2, 0, ZeroSignCase::kRows - first_row,
                    ZeroSignCase::kDepth, kN,
                    c.a.data() + first_row * ZeroSignCase::kDepth,
                    ZeroSignCase::kDepth, 1, c.b.data(), out.data());
  };
  const std::uint32_t saved = read_mxcsr();
  // Rows 3.. never underflow (row 2 holds the -1e-30 coefficient).
  write_mxcsr(saved & ~kUnderflowFlag);
  run(3);
  EXPECT_EQ(read_mxcsr() & kUnderflowFlag, 0u);
  write_mxcsr(saved | kUnderflowFlag);
  run(3);
  EXPECT_NE(read_mxcsr() & kUnderflowFlag, 0u);
  write_mxcsr(saved & ~kUnderflowFlag);
  run(0);
  EXPECT_NE(read_mxcsr() & kUnderflowFlag, 0u);
  write_mxcsr(saved);
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
