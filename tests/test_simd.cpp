// AVX2 kernel contracts that hold for every entry point in tensor/simd.hpp:
// each returns with clean upper-YMM state, the narrow fp32 GEMM equals the
// zero-skipping fused loop bit for bit, and the k-means distances and the
// training step's elementwise kernels are bitwise identical to the scalar
// level, as the header promises.
#include <gtest/gtest.h>

#include <cfloat>
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
                            b.data(), nullptr, c.data());
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

  // Training-step kernels at a width with a vector body and a tail, and a
  // column count spanning two register panels.
  constexpr std::size_t kWidth = 42;
  const std::vector<float> x = uniform_floats(kRows * kWidth, rng);
  const std::vector<float> upstream = uniform_floats(kWidth, rng);
  std::vector<float> out(kWidth);
  EXPECT_TRUE(exits_clean("column_sums", [&] {
    simd::column_sums(kAvx2, x.data(), kRows, kWidth, out.data());
  }));
  EXPECT_TRUE(exits_clean("relu_forward", [&] {
    simd::relu_forward(kAvx2, x.data(), kWidth, out.data());
  }));
  EXPECT_TRUE(exits_clean("relu_backward", [&] {
    simd::relu_backward(kAvx2, x.data(), upstream.data(), kWidth, out.data());
  }));
  std::vector<float> value = uniform_floats(kWidth, rng);
  std::vector<float> m(kWidth, 0.0f);
  std::vector<float> v(kWidth, 0.0f);
  simd::AdamStep step;
  step.lr = 1e-3f;
  step.beta1 = 0.9f;
  step.beta2 = 0.999f;
  step.epsilon = 1e-8f;
  step.bias1 = 0.1f;
  step.bias2 = 0.001f;
  EXPECT_TRUE(exits_clean("adam_update", [&] {
    simd::adam_update(kAvx2, step, kWidth, value.data(), upstream.data(),
                      m.data(), v.data());
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

/// Runs rows [0, m) of the GEMM at AVX2 in both A layouts, without and
/// with a bias, and counts the outputs whose bits differ from the skipping
/// reference (plus the bias, added once after the last step). The bias
/// holds -0 and +0 entries, which keep or clear a -0 output's sign.
std::size_t avx2_mismatches(const ZeroSignCase& c, std::size_t m,
                            std::size_t n) {
  constexpr std::size_t kDepth = ZeroSignCase::kDepth;
  const std::vector<float> reference = skipping_fma_reference(
      m, kDepth, n, c.a.data(), kDepth, 1, c.b.data());
  const std::vector<float> at = c.a_transposed();
  std::vector<float> bias(n);
  for (std::size_t j = 0; j < n; ++j) {
    bias[j] = j % 3 == 0 ? -0.0f : (j % 3 == 1 ? 0.0f : 0.25f);
  }
  std::size_t mismatches = 0;
  for (const bool with_bias : {false, true}) {
    std::vector<float> expected = reference;
    if (with_bias) {
      for (std::size_t e = 0; e < expected.size(); ++e) {
        expected[e] += bias[e % n];
      }
    }
    for (const bool transposed : {false, true}) {
      std::vector<float> out(m * n, 1.0f);
      simd::gemm_rows(simd::Level::kAVX2, 0, m, kDepth, n,
                      transposed ? at.data() : c.a.data(),
                      transposed ? 1 : kDepth,
                      transposed ? ZeroSignCase::kRows : 1, c.b.data(),
                      with_bias ? bias.data() : nullptr, out.data());
      for (std::size_t e = 0; e < out.size(); ++e) {
        if (float_bits(out[e]) != float_bits(expected[e])) {
          ++mismatches;
          ADD_FAILURE() << (transposed ? "acs = m" : "acs = 1")
                        << (with_bias ? " with bias" : "") << " m=" << m
                        << " n=" << n << " row " << e / n << " col " << e % n
                        << ": " << out[e] << " vs " << expected[e];
        }
      }
    }
  }
  return mismatches;
}

/// Every narrow width (n = 1..64), a multi-row-group call (19 rows) and a
/// single-row call, both A layouts, with and without a bias: the AVX2
/// result equals the zero-skipping fmaf loop bit for bit, -0 outputs and
/// the underflow row included.
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
                    ZeroSignCase::kDepth, 1, c.b.data(), nullptr, out.data());
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

/// --- training-step elementwise kernels: scalar == AVX2 bit for bit ---

/// The widths the detector's layers run (5 outputs, 16 hidden, 42 inputs):
/// a lone masked vector, whole vectors, and whole vectors plus a tail.
constexpr std::size_t kElementwiseWidths[] = {5, 16, 42};

/// Values at every IEEE corner the kernels must treat as the scalar loops
/// do: NaN, both zeros, both infinities, subnormals, and FLT_MIN with its
/// neighbours (the Adam flush boundary).
std::vector<float> special_floats() {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  return {std::nanf(""),
          0.0f,
          -0.0f,
          inf,
          -inf,
          denorm,
          -denorm,
          1e-40f,
          -3e-39f,
          FLT_MIN,
          -FLT_MIN,
          std::nextafter(FLT_MIN, 0.0f),
          std::nextafter(FLT_MIN, 1.0f),
          -std::nextafter(FLT_MIN, 0.0f),
          1.0f,
          -1.0f};
}

/// `n` uniform values with every third replaced by the next special value
/// in turn, so each special lands in body lanes and tail lanes alike.
std::vector<float> with_specials(std::size_t n, Rng& rng,
                                 std::size_t offset) {
  const std::vector<float> specials = special_floats();
  std::vector<float> values = uniform_floats(n, rng);
  for (std::size_t i = 0; i < n; i += 3) {
    values[i] = specials[(offset + i / 3) % specials.size()];
  }
  return values;
}

/// Counts the elements whose bits differ, reporting each.
std::size_t bit_mismatches(const std::vector<float>& scalar,
                           const std::vector<float>& avx2,
                           const std::string& what) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    if (float_bits(scalar[i]) != float_bits(avx2[i])) {
      ++mismatches;
      ADD_FAILURE() << what << " element " << i << ": scalar " << scalar[i]
                    << " (0x" << std::hex << float_bits(scalar[i])
                    << ") vs avx2 " << avx2[i] << " (0x" << float_bits(avx2[i])
                    << ")" << std::dec;
    }
  }
  return mismatches;
}

TEST(ElementwiseKernels, ColumnSumsBitwiseEqualAcrossLevels) {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  Rng rng(3141);
  for (std::size_t cols : kElementwiseWidths) {
    for (std::size_t rows : {std::size_t{1}, std::size_t{37}}) {
      // Uniform rows first, then one row of each special value: sums that
      // cancel, overflow to inf, and turn NaN.
      std::vector<float> x = uniform_floats(rows * cols, rng);
      for (std::size_t offset = 0; offset < 4; ++offset) {
        const std::vector<float> row = with_specials(cols, rng, offset);
        x.insert(x.end(), row.begin(), row.end());
      }
      const std::size_t total_rows = rows + 4;
      std::vector<float> scalar(cols, 1.0f);
      std::vector<float> avx2(cols, 2.0f);
      simd::column_sums(simd::Level::kScalar, x.data(), total_rows, cols,
                        scalar.data());
      simd::column_sums(simd::Level::kAVX2, x.data(), total_rows, cols,
                        avx2.data());
      EXPECT_EQ(bit_mismatches(scalar, avx2,
                               "column_sums " + std::to_string(total_rows) +
                                   "x" + std::to_string(cols)),
                0u);
    }
  }
}

TEST(ElementwiseKernels, ReluForwardAndBackwardBitwiseEqualAcrossLevels) {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  Rng rng(2718);
  for (std::size_t n : kElementwiseWidths) {
    for (std::size_t offset = 0; offset < 3; ++offset) {
      const std::vector<float> x = with_specials(n, rng, offset);
      const std::vector<float> upstream = with_specials(n, rng, offset + 5);
      const std::string what = "n=" + std::to_string(n);
      std::vector<float> scalar(n, 1.0f);
      std::vector<float> avx2(n, 2.0f);
      simd::relu_forward(simd::Level::kScalar, x.data(), n, scalar.data());
      simd::relu_forward(simd::Level::kAVX2, x.data(), n, avx2.data());
      EXPECT_EQ(bit_mismatches(scalar, avx2, "relu_forward " + what), 0u);
      // The ternary's +0 for NaN and -0 inputs.
      for (std::size_t i = 0; i < n; ++i) {
        if (!(x[i] > 0.0f)) {
          EXPECT_EQ(float_bits(avx2[i]), 0u) << i;
        }
      }
      simd::relu_backward(simd::Level::kScalar, x.data(), upstream.data(), n,
                          scalar.data());
      simd::relu_backward(simd::Level::kAVX2, x.data(), upstream.data(), n,
                          avx2.data());
      EXPECT_EQ(bit_mismatches(scalar, avx2, "relu_backward " + what), 0u);
      // In place over the upstream gradient, as the header allows.
      std::vector<float> in_place = upstream;
      simd::relu_backward(simd::Level::kAVX2, x.data(), in_place.data(), n,
                          in_place.data());
      EXPECT_EQ(bit_mismatches(scalar, in_place, "in-place " + what), 0u);
    }
  }
}

/// One Adam update at both levels from the same state; every output array
/// must agree bit for bit.
void expect_adam_levels_agree(const simd::AdamStep& step,
                              const std::vector<float>& value,
                              const std::vector<float>& grad,
                              const std::vector<float>& m,
                              const std::vector<float>& v,
                              const std::string& what) {
  const std::size_t n = value.size();
  std::vector<float> value_s = value, m_s = m, v_s = v;
  std::vector<float> value_a = value, m_a = m, v_a = v;
  simd::adam_update(simd::Level::kScalar, step, n, value_s.data(),
                    grad.data(), m_s.data(), v_s.data());
  simd::adam_update(simd::Level::kAVX2, step, n, value_a.data(), grad.data(),
                    m_a.data(), v_a.data());
  EXPECT_EQ(bit_mismatches(value_s, value_a, what + " value"), 0u);
  EXPECT_EQ(bit_mismatches(m_s, m_a, what + " m"), 0u);
  EXPECT_EQ(bit_mismatches(v_s, v_a, what + " v"), 0u);
}

TEST(ElementwiseKernels, AdamUpdateBitwiseEqualAcrossLevels) {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  Rng rng(1618);
  simd::AdamStep step;
  step.lr = 2e-3f;
  step.beta1 = 0.9f;
  step.beta2 = 0.999f;
  step.epsilon = 1e-8f;
  step.weight_decay = 1e-5f;
  step.bias1 = 1.0f - std::pow(0.9f, 3.0f);
  step.bias2 = 1.0f - std::pow(0.999f, 3.0f);
  for (std::size_t n : kElementwiseWidths) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      std::vector<float> m = with_specials(n, rng, offset + 1);
      std::vector<float> v = with_specials(n, rng, offset + 2);
      for (float& x : v) x = std::fabs(x);  // a second moment is >= 0
      expect_adam_levels_agree(step, with_specials(n, rng, offset),
                               with_specials(n, rng, offset + 3), m, v,
                               "n=" + std::to_string(n));
    }
  }
}

/// With no decay, no moment memory and a zero learning rate the update
/// stores m = g, v = g * g and value unchanged, each through the flush:
/// FLT_MIN stays, the float below it becomes +0, at both levels.
TEST(ElementwiseKernels, AdamFlushBoundaryAtFltMin) {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  simd::AdamStep step;
  step.epsilon = 1e-8f;
  const float below = std::nextafter(FLT_MIN, 0.0f);
  // 2^-63 squares to FLT_MIN exactly; the float below it squares lower.
  const float root = std::ldexp(1.0f, -63);
  const float root_below = std::nextafter(root, 0.0f);
  for (std::size_t n : kElementwiseWidths) {
    std::vector<float> value(n);
    std::vector<float> grad(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float sign = i % 2 == 0 ? 1.0f : -1.0f;
      value[i] = sign * (i % 3 == 0 ? FLT_MIN : below);
      grad[i] = sign * (i % 4 == 0 ? FLT_MIN : i % 4 == 1 ? below
                                   : i % 4 == 2 ? root
                                                : root_below);
    }
    const std::vector<float> zeros(n, 0.0f);
    expect_adam_levels_agree(step, value, grad, zeros, zeros,
                             "boundary n=" + std::to_string(n));
    std::vector<float> updated = value;
    std::vector<float> m = zeros;
    std::vector<float> v = zeros;
    simd::adam_update(simd::Level::kAVX2, step, n, updated.data(),
                      grad.data(), m.data(), v.data());
    for (std::size_t i = 0; i < n; ++i) {
      const bool value_normal = i % 3 == 0;
      EXPECT_EQ(float_bits(updated[i]),
                float_bits(value_normal ? value[i] : 0.0f))
          << "value " << i;
      const bool grad_normal = i % 4 != 1;
      EXPECT_EQ(float_bits(m[i]), float_bits(grad_normal ? grad[i] : 0.0f))
          << "m " << i;
      const bool square_normal = i % 4 == 2;
      EXPECT_EQ(float_bits(v[i]), float_bits(square_normal ? FLT_MIN : 0.0f))
          << "v " << i;
    }
  }
}

}  // namespace
}  // namespace anole
