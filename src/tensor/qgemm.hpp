// Int8 quantized GEMM kernels — the inference fast path for compressed
// models (paper section IV: serving under tight mobile latency/memory
// budgets; post-training int8 is the canonical next compression step).
//
// Scheme: weights are quantized per output channel with symmetric scales
// (scale_c = max|W[:,c]| / 127, snapped to an fp16-representable value so
// the artifact wire format round-trips bit-identically); activations are
// quantized per row on the fly with the same symmetric rule. qgemm()
// accumulates int8 x int8 products into int32 — exact integer arithmetic —
// and fuses the dequantization (one multiply by scale_row * scale_col per
// output element, plus an optional bias add).
//
// Determinism: the int32 accumulation is exact, so it is associative and
// independent of any blocking or thread decomposition; the fused dequant
// is one fp operation per output element. Every entry point here is
// therefore bitwise reproducible at any thread count AND at any SIMD
// dispatch level (tensor/simd.hpp) — a strictly easier contract than the
// fp32 kernels' ordered-combine discipline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace anole {

/// IEEE 754 binary16 conversions (round-to-nearest-even, with denormal and
/// inf/NaN handling). Used to snap quantization scales and biases to the
/// values the artifact v3 wire format stores, and by nn/serialize to
/// encode them.
std::uint16_t float_to_half(float value);
float half_to_float(std::uint16_t half);

/// A per-channel symmetrically quantized weight matrix, stored transposed
/// relative to nn::Linear's [in, out] layout: row c holds output channel
/// c's `depth` weights contiguously, so the qgemm inner loop is a
/// contiguous dot product.
///
/// `data` + `scales` are the wire state (what artifact v3 stores). The
/// kernel itself runs from `exec`, a derived int16 copy padded to a
/// multiple of simd::kQgemmDepthMultiple columns: int16 operands feed the
/// multiply-add-pairs idiom (256-bit pmaddwd at AVX2: 16 MACs per
/// instruction, double the fp32 rate), and the zero padding removes the
/// scalar tail of the vectorized dot. Call prepare()
/// after filling the wire fields; qgemm() requires it.
struct QuantizedMatrix {
  std::size_t channels = 0;  ///< output channels (rows of `data`)
  std::size_t depth = 0;     ///< reduction length (columns of `data`)
  /// [channels, depth] row-major int8 weights.
  std::vector<std::int8_t> data;
  /// One symmetric scale per channel; every value is exactly representable
  /// in fp16 (snapped at quantization time).
  std::vector<float> scales;

  /// Derived, never serialized: [channels, padded_depth] int16 copy of
  /// `data` with zero-filled padding columns.
  std::size_t padded_depth = 0;
  std::vector<std::int16_t> exec;

  std::size_t size() const { return data.size(); }

  /// Rebuilds `exec`/`padded_depth` from the wire fields. Idempotent.
  void prepare();
};

/// Quantizes fp32 weights `weights` [depth, channels] (the nn::Linear
/// layout) to per-channel symmetric int8. Channels that are entirely zero
/// get scale 1 (and all-zero rows). Throws on rank != 2.
QuantizedMatrix quantize_weights(const Tensor& weights);

/// Reconstructs fp32 weights [depth, channels] from a QuantizedMatrix.
/// This is the exact matrix the quantized kernel computes with; it is NOT
/// the pre-quantization fp32 matrix.
Tensor dequantize_weights(const QuantizedMatrix& quantized);

/// Quantizes one fp32 row to symmetric int8 in place; returns the scale
/// (max|src| / 127, or 1 when the row is all zero). NaN elements are left
/// out of the max and quantize to 0 (simd::quantize_code). `dst.size()`
/// must equal `src.size()`.
float quantize_row_int8(std::span<const float> src,
                        std::span<std::int8_t> dst);

/// y = x W (+ bias): x is [m, depth] fp32 (rows are quantized on the fly),
/// W is the per-channel quantized matrix, y is [m, channels] fp32 with the
/// dequantization (and the optional [channels] bias add) fused into the
/// kernel. Cache-blocked over output channels; runs on the calling thread
/// and is bitwise identical at every dispatch level.
Tensor qgemm(const Tensor& x, const QuantizedMatrix& weights,
             std::span<const float> bias = {});

}  // namespace anole
