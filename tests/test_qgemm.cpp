// Int8 quantized inference fast path: fp16 scale encoding, per-channel
// weight quantization, the qgemm kernel (exact against a scalar integer
// reference, tolerant against fp32, bitwise deterministic across thread
// counts), QuantizedLinear, the Sequential quantization pass, the compact
// precision-tagged network wire format, and edge shapes for every GEMM
// entry point.
#include "tensor/qgemm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "simd_levels.hpp"
#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace anole {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { par::set_thread_count(0); }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t = Tensor::matrix(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal());
  }
  return t;
}

/// Scalar integer reference for qgemm: same quantizers (via the public
/// int8 row helper), exact int32 accumulation, and the kernel's exact
/// dequant formula float(acc) * (row_scale * channel_scale) + bias.
Tensor reference_qgemm(const Tensor& x, const QuantizedMatrix& w,
                       const std::vector<float>& bias) {
  Tensor y = Tensor::matrix(x.rows(), w.channels);
  std::vector<std::int8_t> codes(x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const float row_scale = quantize_row_int8(x.row(i), codes);
    for (std::size_t j = 0; j < w.channels; ++j) {
      std::int32_t acc = 0;
      for (std::size_t kk = 0; kk < w.depth; ++kk) {
        acc += static_cast<std::int32_t>(codes[kk]) *
               static_cast<std::int32_t>(w.data[j * w.depth + kk]);
      }
      float value = static_cast<float>(acc) * (row_scale * w.scales[j]);
      if (!bias.empty()) value += bias[j];
      y.at(i, j) = value;
    }
  }
  return y;
}

// --- fp16 helpers ---

TEST(Fp16, RoundTripsRepresentableValues) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 65504.0f, -65504.0f, 0.25f,
                  1.5f, 2048.0f}) {
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
}

TEST(Fp16, RoundsToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1 + 2^-10);
  // nearest-even resolves downward to 1.0.
  EXPECT_EQ(half_to_float(float_to_half(1.0f + 0x1p-11f)), 1.0f);
  // Just above the halfway point rounds up.
  EXPECT_EQ(half_to_float(float_to_half(1.0f + 0x1.2p-11f)), 1.0f + 0x1p-10f);
}

TEST(Fp16, HandlesSpecials) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(half_to_float(float_to_half(inf)), inf);
  EXPECT_EQ(half_to_float(float_to_half(-inf)), -inf);
  EXPECT_TRUE(std::isnan(half_to_float(float_to_half(
      std::numeric_limits<float>::quiet_NaN()))));
  // Overflow saturates to inf; tiny values flush toward zero/denormals.
  EXPECT_EQ(half_to_float(float_to_half(1e6f)), inf);
  EXPECT_EQ(half_to_float(float_to_half(1e-10f)), 0.0f);
  // Smallest fp16 denormal survives.
  EXPECT_EQ(half_to_float(float_to_half(0x1p-24f)), 0x1p-24f);
}

TEST(Fp16, SnappingIsIdempotent) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(rng.normal());
    const std::uint16_t h = float_to_half(v);
    const float snapped = half_to_float(h);
    EXPECT_EQ(float_to_half(snapped), h);
    EXPECT_EQ(half_to_float(float_to_half(snapped)), snapped);
  }
}

// --- weight quantization ---

TEST(QuantizeWeights, ScalesAreFp16SnappedAndCodesBounded) {
  Rng rng(5);
  const Tensor w = random_matrix(42, 16, rng);
  const QuantizedMatrix q = quantize_weights(w);
  EXPECT_EQ(q.depth, 42u);
  EXPECT_EQ(q.channels, 16u);
  ASSERT_EQ(q.scales.size(), 16u);
  ASSERT_EQ(q.data.size(), 42u * 16u);
  for (float scale : q.scales) {
    EXPECT_GT(scale, 0.0f);
    EXPECT_EQ(half_to_float(float_to_half(scale)), scale)
        << "scale not fp16-representable";
  }
  for (std::int8_t code : q.data) {
    EXPECT_GE(code, -127);
    EXPECT_LE(code, 127);
  }
}

TEST(QuantizeWeights, DequantizeReconstructsWithinScale) {
  Rng rng(6);
  const Tensor w = random_matrix(30, 8, rng);
  const QuantizedMatrix q = quantize_weights(w);
  const Tensor back = dequantize_weights(q);
  ASSERT_EQ(back.rows(), w.rows());
  ASSERT_EQ(back.cols(), w.cols());
  for (std::size_t c = 0; c < q.channels; ++c) {
    // Max representation error of symmetric rounding is half a step.
    const float tolerance = q.scales[c] * 0.5f + 1e-6f;
    for (std::size_t d = 0; d < q.depth; ++d) {
      EXPECT_NEAR(back.at(d, c), w.at(d, c), tolerance)
          << "d=" << d << " c=" << c;
    }
  }
}

TEST(QuantizeWeights, ZeroChannelGetsUnitScaleAndZeroCodes) {
  Tensor w = Tensor::matrix(4, 2);
  w.at(0, 1) = 3.0f;  // channel 1 non-zero, channel 0 all zero
  const QuantizedMatrix q = quantize_weights(w);
  EXPECT_EQ(q.scales[0], 1.0f);
  for (std::size_t d = 0; d < 4; ++d) EXPECT_EQ(q.data[0 * 4 + d], 0);
}

TEST(QuantizeRowInt8, CodesMatchSymmetricRule) {
  const std::vector<float> row = {1.0f, -1.0f, 0.5f, 0.0f, -0.25f};
  std::vector<std::int8_t> codes(row.size());
  const float scale = quantize_row_int8(
      std::span<const float>(row), std::span<std::int8_t>(codes));
  EXPECT_FLOAT_EQ(scale, 1.0f / 127.0f);
  EXPECT_EQ(codes[0], 127);
  EXPECT_EQ(codes[1], -127);
  EXPECT_EQ(codes[3], 0);
  // Round-to-nearest-even at 0.5 * 127 = 63.5 -> 64.
  EXPECT_EQ(codes[2], 64);
}

TEST(QuantizeRowInt8, NanIsLeftOutOfTheScaleAndQuantizesToZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> row = {0.5f, nan, -1.0f, nan};
  std::vector<std::int8_t> codes(row.size());
  const float scale = quantize_row_int8(row, codes);
  EXPECT_EQ(scale, 1.0f / 127.0f);
  EXPECT_EQ(codes, (std::vector<std::int8_t>{64, 0, -127, 0}));
}

// --- activation quantizer parity across dispatch levels ---

/// Codes (padding included) and scale bits of simd::quantize_row_int16.
struct Int16Row {
  std::vector<std::int16_t> codes;
  std::uint32_t scale_bits = 0;
  bool operator==(const Int16Row&) const = default;
};

Int16Row quantize_int16_at(simd::Level level, const std::vector<float>& row) {
  const std::size_t padded =
      (row.size() + simd::kQgemmDepthMultiple - 1) /
      simd::kQgemmDepthMultiple * simd::kQgemmDepthMultiple;
  // A non-zero sentinel, so a padding slot left unwritten shows up.
  Int16Row out{std::vector<std::int16_t>(padded, 0x5A5A), 0};
  const float scale =
      simd::quantize_row_int16(level, row, out.codes.data(), padded);
  std::memcpy(&out.scale_bits, &scale, sizeof(scale));
  return out;
}

/// The rows every depth is checked on, each named for the failure report.
std::vector<std::pair<std::string, std::vector<float>>> parity_rows(
    std::size_t n, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> random(n);
  for (float& v : random) v = static_cast<float>(rng.normal());
  std::vector<std::pair<std::string, std::vector<float>>> rows;
  rows.emplace_back("all zero", std::vector<float>(n, 0.0f));
  rows.emplace_back("random", random);
  std::vector<float> tail_max = random;
  tail_max.back() = -9.0f;
  rows.emplace_back("max in the tail", tail_max);
  // |max| = 127 makes the scale exactly 1, so +-(k + 0.5) are exact ties.
  std::vector<float> ties(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float half = static_cast<float>(i % 127) + 0.5f;
    ties[i] = i % 2 == 0 ? half : -half;
  }
  ties.front() = 127.0f;
  rows.emplace_back("ties", ties);
  // An infinite element pins the scale to 1: everything else lies beyond
  // +-127 * scale and clamps.
  std::vector<float> beyond(n);
  for (std::size_t i = 0; i < n; ++i) {
    beyond[i] = (i % 2 == 0 ? 1.0f : -1.0f) * (300.0f + static_cast<float>(i));
  }
  beyond.front() = inf;
  beyond.back() = n > 1 ? -inf : inf;
  rows.emplace_back("+-inf and beyond 127 * scale", beyond);
  std::vector<float> nan_first = random;
  nan_first.front() = nan;
  rows.emplace_back("NaN in the first chunk", nan_first);
  std::vector<float> nan_last = random;
  nan_last.back() = nan;
  rows.emplace_back("NaN in the tail", nan_last);
  return rows;
}

TEST(QuantizeRowInt16, ScalarAndAvx2AgreeAtEveryDepth) {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  Rng rng(70);
  for (std::size_t n = 1; n <= 70; ++n) {
    for (const auto& [name, row] : parity_rows(n, rng)) {
      EXPECT_EQ(quantize_int16_at(simd::Level::kAVX2, row),
                quantize_int16_at(simd::Level::kScalar, row))
          << name << ", depth " << n;
    }
  }
}

TEST(QuantizeRowInt16, ScalarFollowsTheSymmetricRule) {
  Rng rng(71);
  for (std::size_t n = 1; n <= 70; ++n) {
    for (const auto& [name, row] : parity_rows(n, rng)) {
      SCOPED_TRACE(name + ", depth " + std::to_string(n));
      const Int16Row q = quantize_int16_at(simd::Level::kScalar, row);
      float abs_max = 0.0f;
      for (float v : row) {
        if (!std::isnan(v)) abs_max = std::max(abs_max, std::fabs(v));
      }
      const float scale = abs_max > 0.0f && std::isfinite(abs_max / 127.0f)
                              ? abs_max / 127.0f
                              : 1.0f;
      std::uint32_t scale_bits = 0;
      std::memcpy(&scale_bits, &scale, sizeof(scale));
      EXPECT_EQ(q.scale_bits, scale_bits);
      for (std::size_t i = 0; i < q.codes.size(); ++i) {
        std::int16_t expected = 0;
        if (i < n && !std::isnan(row[i])) {
          expected = static_cast<std::int16_t>(std::clamp(
              std::nearbyint(row[i] * (1.0f / scale)), -127.0f, 127.0f));
        }
        ASSERT_EQ(q.codes[i], expected) << "element " << i;
      }
    }
  }
}

// --- the kernel ---

TEST(Qgemm, MatchesIntegerReferenceExactly) {
  Rng rng(7);
  for (const auto& [m, k, n] :
       std::vector<std::array<std::size_t, 3>>{{1, 1, 1},
                                               {3, 5, 7},
                                               {16, 42, 16},
                                               {33, 48, 5},
                                               {144, 42, 16},
                                               {2, 64, 64},
                                               {5, 7, 130}}) {
    const Tensor x = random_matrix(m, k, rng);
    const Tensor w = random_matrix(k, n, rng);
    std::vector<float> bias(n);
    for (auto& v : bias) v = static_cast<float>(rng.normal());
    const QuantizedMatrix q = quantize_weights(w);
    const Tensor got = qgemm(x, q, bias);
    const Tensor want = reference_qgemm(x, q, bias);
    ASSERT_TRUE(bitwise_equal(got, want)) << m << "x" << k << "x" << n;
    // And without bias.
    ASSERT_TRUE(bitwise_equal(qgemm(x, q), reference_qgemm(x, q, {})))
        << m << "x" << k << "x" << n << " (no bias)";
  }
}

TEST(Qgemm, ApproximatesFp32Matmul) {
  Rng rng(8);
  const Tensor x = random_matrix(64, 42, rng);
  const Tensor w = random_matrix(42, 16, rng);
  const QuantizedMatrix q = quantize_weights(w);
  const Tensor exact = matmul(x, w);
  const Tensor quantized = qgemm(x, q);
  double worst = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(exact[i]) -
                                      static_cast<double>(quantized[i])));
    scale = std::max(scale, std::fabs(static_cast<double>(exact[i])));
  }
  // Relative error of a 42-deep int8 dot stays well under 2%.
  EXPECT_LT(worst, 0.02 * scale);
}

TEST(Qgemm, BitwiseDeterministicAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(9);
  const Tensor x = random_matrix(150, 42, rng);
  const Tensor w = random_matrix(42, 70, rng);
  std::vector<float> bias(70);
  for (auto& v : bias) v = static_cast<float>(rng.normal());
  const QuantizedMatrix q = quantize_weights(w);
  par::set_thread_count(1);
  const Tensor serial = qgemm(x, q, bias);
  par::set_thread_count(4);
  const Tensor parallel = qgemm(x, q, bias);
  EXPECT_TRUE(bitwise_equal(serial, parallel));
}

TEST(Qgemm, BitwiseIdenticalAtEveryDispatchLevel) {
  // The int8 contract (tensor/simd.hpp): int32 accumulation is exact and
  // the fused dequant is one rounding per element at every level, so
  // AVX2 must match the scalar kernel bit for bit — at any thread count.
  ThreadCountGuard guard;
  Rng rng(22);
  for (const auto& [m, k, n] :
       std::vector<std::array<std::size_t, 3>>{{3, 5, 7},
                                               {144, 42, 16},
                                               {17, 130, 33}}) {
    const Tensor x = random_matrix(m, k, rng);
    const Tensor w = random_matrix(k, n, rng);
    std::vector<float> bias(n);
    for (auto& v : bias) v = static_cast<float>(rng.normal());
    const QuantizedMatrix q = quantize_weights(w);

    Tensor reference;
    {
      SimdLevelGuard simd_guard(simd::Level::kScalar);
      par::set_thread_count(1);
      reference = qgemm(x, q, bias);
    }
    ASSERT_TRUE(bitwise_equal(reference, reference_qgemm(x, q, bias)))
        << m << "x" << k << "x" << n;
    for (const simd::Level level : available_levels()) {
      SimdLevelGuard simd_guard(level);
      par::set_thread_count(1);
      const Tensor serial = qgemm(x, q, bias);
      par::set_thread_count(4);
      const Tensor parallel = qgemm(x, q, bias);
      EXPECT_TRUE(bitwise_equal(serial, reference))
          << simd::level_name(level) << " " << m << "x" << k << "x" << n;
      EXPECT_TRUE(bitwise_equal(parallel, reference))
          << simd::level_name(level) << " " << m << "x" << k << "x" << n
          << " (4 threads)";
    }
  }
}

TEST(Qgemm, RejectsBadShapes) {
  Rng rng(10);
  const Tensor w = random_matrix(8, 4, rng);
  QuantizedMatrix q = quantize_weights(w);
  const Tensor wrong_depth = random_matrix(3, 7, rng);
  EXPECT_THROW((void)qgemm(wrong_depth, q), std::invalid_argument);
  std::vector<float> bad_bias(5);
  const Tensor x = random_matrix(3, 8, rng);
  EXPECT_THROW((void)qgemm(x, q, bad_bias), std::invalid_argument);
  QuantizedMatrix unprepared = q;
  unprepared.exec.clear();
  EXPECT_THROW((void)qgemm(x, unprepared), std::invalid_argument);
}

// --- edge shapes for every GEMM entry point ---

/// fp32 references in the shared kernel's accumulation form.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::matrix(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t kk = 0; kk < a.cols(); ++kk) {
      const float aik = a.at(i, kk);
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aik * b.at(kk, j);
      }
    }
  }
  return c;
}

TEST(GemmEdgeShapes, RowVectorColumnVectorAndK1) {
  Rng rng(12);
  // (1 x k)(k x n), (m x k)(k x 1), k = 1, and 1x1x1. The fp32 kernels
  // run under the exact (non-FMA) scalar level, which shares the naive
  // reference's rounding bit for bit; the int8 path is exact at every
  // level including AVX2.
  for (const auto& [m, k, n] :
       std::vector<std::array<std::size_t, 3>>{
           {1, 17, 9}, {9, 17, 1}, {6, 1, 6}, {1, 1, 1}}) {
    const Tensor a = random_matrix(m, k, rng);
    const Tensor b = random_matrix(k, n, rng);
    for (const simd::Level level : available_levels()) {
      SimdLevelGuard simd_guard(level);
      if (level != simd::Level::kAVX2) {
        EXPECT_TRUE(bitwise_equal(matmul(a, b), naive_matmul(a, b)))
            << "matmul " << m << "x" << k << "x" << n << " "
            << simd::level_name(level);

        const Tensor at = transpose(a);
        EXPECT_TRUE(
            bitwise_equal(matmul_transpose_a(at, b), naive_matmul(a, b)))
            << "transpose_a " << m << "x" << k << "x" << n << " "
            << simd::level_name(level);

        const Tensor bt = transpose(b);
        EXPECT_TRUE(
            bitwise_equal(matmul_transpose_b(a, bt), naive_matmul(a, b)))
            << "transpose_b " << m << "x" << k << "x" << n << " "
            << simd::level_name(level);
      }

      const QuantizedMatrix q = quantize_weights(b);
      EXPECT_TRUE(bitwise_equal(qgemm(a, q), reference_qgemm(a, q, {})))
          << "qgemm " << m << "x" << k << "x" << n << " "
          << simd::level_name(level);
    }
  }
}

TEST(GemmEdgeShapes, EmptyDimensionsProduceZeroFilledOutputs) {
  Rng rng(13);
  // m = 0: no rows.
  {
    const Tensor a = Tensor::matrix(0, 4);
    const Tensor b = random_matrix(4, 3, rng);
    EXPECT_EQ(matmul(a, b).rows(), 0u);
    EXPECT_EQ(qgemm(a, quantize_weights(b)).rows(), 0u);
  }
  // k = 0: the contraction is empty; every output must be exactly zero
  // (+ bias for qgemm), not uninitialized memory.
  {
    const Tensor a = Tensor::matrix(3, 0);
    const Tensor b = Tensor::matrix(0, 5);
    const Tensor c = matmul(a, b);
    ASSERT_EQ(c.rows(), 3u);
    ASSERT_EQ(c.cols(), 5u);
    for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 0.0f);

    const Tensor ct = matmul_transpose_a(transpose(a), b);
    for (std::size_t i = 0; i < ct.size(); ++i) EXPECT_EQ(ct[i], 0.0f);
    const Tensor cb = matmul_transpose_b(a, transpose(b));
    for (std::size_t i = 0; i < cb.size(); ++i) EXPECT_EQ(cb[i], 0.0f);

    std::vector<float> bias = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
    const Tensor cq = qgemm(a, quantize_weights(b), bias);
    ASSERT_EQ(cq.cols(), 5u);
    for (std::size_t i = 0; i < cq.rows(); ++i) {
      for (std::size_t j = 0; j < cq.cols(); ++j) {
        EXPECT_EQ(cq.at(i, j), bias[j]);
      }
    }
  }
  // n = 0: no output columns.
  {
    const Tensor a = random_matrix(3, 4, rng);
    const Tensor b = Tensor::matrix(4, 0);
    EXPECT_EQ(matmul(a, b).cols(), 0u);
    EXPECT_EQ(qgemm(a, quantize_weights(b)).cols(), 0u);
  }
}

// --- QuantizedLinear and the Sequential pass ---

TEST(QuantizedLinear, ForwardMatchesQgemmAndBackwardThrows) {
  Rng rng(14);
  nn::Linear linear(42, 16, rng);
  nn::QuantizedLinear quantized(linear);
  const Tensor x = random_matrix(10, 42, rng);

  // The layer's forward is exactly qgemm with the snapped bias fused.
  std::vector<float> bias(16);
  for (std::size_t j = 0; j < 16; ++j) {
    bias[j] = quantized.bias()[j];
    EXPECT_EQ(half_to_float(float_to_half(bias[j])), bias[j])
        << "bias not fp16-snapped";
  }
  EXPECT_TRUE(bitwise_equal(
      quantized.forward(x),
      qgemm(x, quantized.quantized_weights(), bias)));

  EXPECT_EQ(quantized.flops_per_sample(), linear.flops_per_sample());
  EXPECT_THROW((void)quantized.backward(x), std::invalid_argument);
}

TEST(QuantizePass, ConvertsRestoresAndDequantizes) {
  Rng rng(15);
  auto net = nn::make_mlp({42, 16, 5}, rng);
  const Tensor x = random_matrix(6, 42, rng);
  const Tensor fp32_out = net->forward(x);
  EXPECT_FALSE(nn::is_quantized(*net));

  auto displaced = nn::quantize_linear_layers(*net);
  EXPECT_EQ(displaced.size(), 2u);
  EXPECT_TRUE(nn::is_quantized(*net));
  const Tensor int8_out = net->forward(x);
  // Quantization is lossy but close.
  for (std::size_t i = 0; i < fp32_out.size(); ++i) {
    EXPECT_NEAR(int8_out[i], fp32_out[i], 0.15f);
  }

  // Restoring the displaced originals recovers fp32 bit-identically.
  for (auto& [index, original] : displaced) {
    (void)net->replace(index, std::move(original));
  }
  EXPECT_FALSE(nn::is_quantized(*net));
  EXPECT_TRUE(bitwise_equal(net->forward(x), fp32_out));

  // Dequantization after a fresh pass keeps the quantized function.
  (void)nn::quantize_linear_layers(*net);
  const Tensor quant_out = net->forward(x);
  EXPECT_EQ(nn::dequantize_linear_layers(*net), 2u);
  EXPECT_FALSE(nn::is_quantized(*net));
  const Tensor dequant_out = net->forward(x);
  // fp32-on-dequantized-weights differs from int8 execution only by the
  // activation quantization error.
  for (std::size_t i = 0; i < quant_out.size(); ++i) {
    EXPECT_NEAR(dequant_out[i], quant_out[i], 0.15f);
  }
}

TEST(QuantizePass, IdempotentOnQuantizedNetworks) {
  Rng rng(16);
  auto net = nn::make_mlp({8, 4}, rng);
  EXPECT_EQ(nn::quantize_linear_layers(*net).size(), 1u);
  EXPECT_TRUE(nn::quantize_linear_layers(*net).empty());
}

// --- the compact precision-tagged wire format ---

TEST(NetworkWire, QuantizedRoundTripIsBitIdentical) {
  ThreadCountGuard guard;
  Rng rng(17);
  auto net = nn::make_mlp({42, 16, 5}, rng);
  (void)nn::quantize_linear_layers(*net);
  const Tensor x = random_matrix(9, 42, rng);
  const Tensor before = net->forward(x);

  std::stringstream stream;
  nn::save_network(*net, stream);
  EXPECT_EQ(nn::network_wire_bytes(*net),
            static_cast<std::uint64_t>(stream.str().size()));

  Rng reload_rng(0);
  auto fresh = nn::make_mlp({42, 16, 5}, reload_rng);
  nn::load_network(*fresh, stream);
  EXPECT_TRUE(nn::is_quantized(*fresh));
  // The wire carries the exact codes/scales, so inference is bitwise
  // reproducible across the artifact hop — at any thread count.
  par::set_thread_count(4);
  EXPECT_TRUE(bitwise_equal(fresh->forward(x), before));
}

TEST(NetworkWire, Fp32RoundTripIsBitIdentical) {
  Rng rng(18);
  auto net = nn::make_mlp({12, 7, 3}, rng);
  const Tensor x = random_matrix(4, 12, rng);
  const Tensor before = net->forward(x);
  std::stringstream stream;
  nn::save_network(*net, stream);
  Rng reload_rng(1);
  auto fresh = nn::make_mlp({12, 7, 3}, reload_rng);
  nn::load_network(*fresh, stream);
  EXPECT_FALSE(nn::is_quantized(*fresh));
  EXPECT_TRUE(bitwise_equal(fresh->forward(x), before));
}

TEST(NetworkWire, QuantizedLayersShrinkStreamedBytes) {
  Rng rng(19);
  auto net = nn::make_mlp({42, 16, 5}, rng);
  const std::uint64_t fp32_bytes = nn::streamed_weight_bytes(*net);
  EXPECT_EQ(fp32_bytes, nn::serialized_size_bytes(*net));
  (void)nn::quantize_linear_layers(*net);
  const std::uint64_t int8_bytes = nn::streamed_weight_bytes(*net);
  EXPECT_EQ(int8_bytes, nn::network_wire_bytes(*net));
  // The acceptance bar for artifact v3 model payloads.
  EXPECT_GE(static_cast<double>(fp32_bytes) /
                static_cast<double>(int8_bytes),
            3.5);
}

TEST(NetworkWire, MalformedStreamsRejected) {
  Rng rng(20);
  auto net = nn::make_mlp({6, 4}, rng);
  std::stringstream stream;
  nn::save_network(*net, stream);
  std::string blob = stream.str();
  blob[0] = 2;  // unknown precision tag
  std::stringstream bad(blob);
  Rng reload_rng(2);
  auto fresh = nn::make_mlp({6, 4}, reload_rng);
  EXPECT_THROW(nn::load_network(*fresh, bad), std::runtime_error);

  std::stringstream truncated(stream.str().substr(0, 10));
  Rng reload_rng2(3);
  auto fresh2 = nn::make_mlp({6, 4}, reload_rng2);
  EXPECT_THROW(nn::load_network(*fresh2, truncated), std::runtime_error);
}

}  // namespace
}  // namespace anole
