#include "tensor/qgemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "tensor/simd.hpp"
#include "util/check.hpp"

namespace anole {
namespace {

/// int32 accumulation of depth * 127 * 127 must not overflow; every
/// network in this codebase has depth < 100, so this is pure headroom.
constexpr std::size_t kMaxDepth = std::size_t{1} << 17;

float snap_to_half(float value) { return half_to_float(float_to_half(value)); }

std::size_t pad_depth(std::size_t depth) {
  return (depth + simd::kQgemmDepthMultiple - 1) / simd::kQgemmDepthMultiple *
         simd::kQgemmDepthMultiple;
}

}  // namespace

void QuantizedMatrix::prepare() {
  padded_depth = pad_depth(depth);
  exec.assign(channels * padded_depth, 0);
  for (std::size_t c = 0; c < channels; ++c) {
    const std::int8_t* src = data.data() + c * depth;
    std::int16_t* dst = exec.data() + c * padded_depth;
    for (std::size_t d = 0; d < depth; ++d) dst[d] = src[d];
  }
}

std::uint16_t float_to_half(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::uint32_t exponent = (bits >> 23) & 0xFFu;
  std::uint32_t mantissa = bits & 0x7FFFFFu;

  if (exponent == 0xFFu) {  // inf / NaN
    return static_cast<std::uint16_t>(sign | 0x7C00u |
                                      (mantissa ? 0x200u : 0u));
  }
  // Re-bias from 127 to 15.
  const int half_exponent = static_cast<int>(exponent) - 127 + 15;
  if (half_exponent >= 0x1F) {  // overflow -> inf
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (half_exponent <= 0) {  // denormal or underflow to zero
    if (half_exponent < -10) return static_cast<std::uint16_t>(sign);
    // Add the implicit leading 1, then shift into the denormal position
    // with round-to-nearest-even. A carry out of the 10-bit mantissa
    // lands exactly on the smallest normal encoding, which is correct.
    mantissa |= 0x800000u;
    const std::uint32_t shift = static_cast<std::uint32_t>(14 - half_exponent);
    std::uint32_t half_mantissa = mantissa >> shift;
    const std::uint32_t remainder = mantissa & ((1u << shift) - 1u);
    const std::uint32_t halfway = (1u << shift) >> 1;
    if (remainder > halfway ||
        (remainder == halfway && (half_mantissa & 1u))) {
      ++half_mantissa;
    }
    return static_cast<std::uint16_t>(sign | half_mantissa);
  }
  // Normal case: round 23-bit mantissa to 10 bits, nearest-even.
  std::uint32_t half_mantissa = mantissa >> 13;
  const std::uint32_t remainder = mantissa & 0x1FFFu;
  if (remainder > 0x1000u || (remainder == 0x1000u && (half_mantissa & 1u))) {
    ++half_mantissa;
    if (half_mantissa == 0x400u) {  // mantissa carry bumps the exponent
      half_mantissa = 0;
      if (half_exponent + 1 >= 0x1F) {
        return static_cast<std::uint16_t>(sign | 0x7C00u);
      }
      return static_cast<std::uint16_t>(
          sign | (static_cast<std::uint32_t>(half_exponent + 1) << 10));
    }
  }
  return static_cast<std::uint16_t>(
      sign | (static_cast<std::uint32_t>(half_exponent) << 10) |
      half_mantissa);
}

float half_to_float(std::uint16_t half) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(half) & 0x8000u)
                             << 16;
  const std::uint32_t exponent = (half >> 10) & 0x1Fu;
  std::uint32_t mantissa = half & 0x3FFu;
  std::uint32_t bits;
  if (exponent == 0x1Fu) {  // inf / NaN
    bits = sign | 0x7F800000u | (mantissa << 13);
  } else if (exponent == 0) {
    if (mantissa == 0) {  // signed zero
      bits = sign;
    } else {  // denormal: normalize
      int e = -1;
      do {
        ++e;
        mantissa <<= 1;
      } while ((mantissa & 0x400u) == 0);
      mantissa &= 0x3FFu;
      bits = sign |
             (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
             (mantissa << 13);
    }
  } else {
    bits = sign | ((exponent + 127 - 15) << 23) | (mantissa << 13);
  }
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

QuantizedMatrix quantize_weights(const Tensor& weights) {
  ANOLE_CHECK_EQ(weights.rank(), 2u, "quantize_weights: rank != 2");
  const std::size_t depth = weights.rows();
  const std::size_t channels = weights.cols();
  ANOLE_CHECK_LT(depth, kMaxDepth, "quantize_weights: depth too large for "
                 "int32 accumulation");
  QuantizedMatrix q;
  q.channels = channels;
  q.depth = depth;
  q.data.resize(channels * depth);
  q.scales.resize(channels);
  const float* src = weights.data().data();
  for (std::size_t c = 0; c < channels; ++c) {
    float abs_max = 0.0f;
    for (std::size_t d = 0; d < depth; ++d) {
      abs_max = std::max(abs_max, std::abs(src[d * channels + c]));
    }
    // Snap the scale to fp16 *before* quantizing so the int8 codes are
    // computed against exactly the scale the artifact wire format stores.
    float scale = abs_max > 0.0f ? snap_to_half(abs_max / 127.0f) : 1.0f;
    if (!(scale > 0.0f) || !std::isfinite(scale)) scale = 1.0f;
    q.scales[c] = scale;
    const float inv_scale = 1.0f / scale;
    std::int8_t* dst = q.data.data() + c * depth;
    for (std::size_t d = 0; d < depth; ++d) {
      dst[d] = static_cast<std::int8_t>(
          simd::quantize_code(src[d * channels + c], inv_scale));
    }
  }
  q.prepare();
  return q;
}

Tensor dequantize_weights(const QuantizedMatrix& quantized) {
  ANOLE_CHECK_EQ(quantized.data.size(),
                 quantized.channels * quantized.depth,
                 "dequantize_weights: data size mismatch");
  ANOLE_CHECK_EQ(quantized.scales.size(), quantized.channels,
                 "dequantize_weights: scales size mismatch");
  Tensor out = Tensor::uninitialized(
      Shape{quantized.depth, quantized.channels});
  float* dst = out.data().data();
  for (std::size_t c = 0; c < quantized.channels; ++c) {
    const float scale = quantized.scales[c];
    const std::int8_t* src = quantized.data.data() + c * quantized.depth;
    for (std::size_t d = 0; d < quantized.depth; ++d) {
      dst[d * quantized.channels + c] =
          static_cast<float>(src[d]) * scale;
    }
  }
  return out;
}

float quantize_row_int8(std::span<const float> src,
                        std::span<std::int8_t> dst) {
  ANOLE_CHECK_EQ(src.size(), dst.size(), "quantize_row_int8: size mismatch");
  float abs_max = 0.0f;
  for (const float v : src) abs_max = std::max(abs_max, std::abs(v));
  const float scale = simd::row_scale_for(abs_max);
  const float inv_scale = 1.0f / scale;
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] =
        static_cast<std::int8_t>(simd::quantize_code(src[i], inv_scale));
  }
  return scale;
}

Tensor qgemm(const Tensor& x, const QuantizedMatrix& weights,
             std::span<const float> bias) {
  ANOLE_CHECK_EQ(x.rank(), 2u, "qgemm: input rank != 2");
  ANOLE_CHECK_EQ(x.cols(), weights.depth, "qgemm: inner dimension mismatch ",
                 shape_to_string(x.shape()), " vs depth ", weights.depth);
  ANOLE_CHECK(bias.empty() || bias.size() == weights.channels,
              "qgemm: bias size mismatch");
  ANOLE_CHECK_LT(weights.depth, kMaxDepth,
                 "qgemm: depth too large for int32 accumulation");
  ANOLE_CHECK_EQ(weights.exec.size(),
                 weights.channels * weights.padded_depth,
                 "qgemm: QuantizedMatrix::prepare() not called");
  const std::size_t m = x.rows();
  const std::size_t kp = weights.padded_depth;
  const std::size_t n = weights.channels;
  Tensor y = Tensor::uninitialized(Shape{m, n});
  if (m == 0 || n == 0) return y;

  // Quantize every activation row into the padded int16 layout, then run
  // the dispatched blocked dot kernel (tensor/simd.cpp) with fused dequant
  // (+ bias) over all of them. The int32 accumulation is exact, so the
  // result is independent of blocking, unrolling and dispatch level by
  // construction.
  // for_overwrite: every slot (including depth padding) is written by
  // simd::quantize_row_int16 before the kernel reads it, so value-
  // initializing ~m*kp*2 bytes here would be pure memset overhead.
  const auto xq = std::make_unique_for_overwrite<std::int16_t[]>(m * kp);
  const auto xscale = std::make_unique_for_overwrite<float[]>(m);
  const simd::Level level = simd::active_level();
  for (std::size_t i = 0; i < m; ++i) {
    xscale[i] = simd::quantize_row_int16(level, x.row(i), xq.get() + i * kp,
                                         kp);
  }
  simd::qgemm_rows(level, 0, m, n, kp, xq.get(), xscale.get(),
                   weights.exec.data(), weights.scales.data(),
                   bias.empty() ? nullptr : bias.data(), y.data().data());
  return y;
}

}  // namespace anole
