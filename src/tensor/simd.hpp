// Runtime-dispatched SIMD kernel layer (DESIGN.md §13).
//
// Every vector instruction in the repo lives behind this module: callers
// pick a `Level` once (normally `active_level()`) and hand it to the
// kernels below. Two levels exist — a genuinely scalar reference
// (autovectorization suppressed, the baseline every speedup is measured
// against) and an AVX2+FMA path — probed from CPUID at first use and
// overridable with the ANOLE_SIMD environment variable or `set_level()`
// (tests, replay). A level stays only while a benchmark workload runs it.
//
// Determinism contract (per dispatch level):
//   - int8 qgemm accumulates exact int32 sums at both levels, so kScalar
//     and kAVX2 produce bitwise identical outputs.
//   - fp32 GEMM: kScalar evaluates c[j] += a*b[j] with one rounding per
//     multiply and add; kAVX2 fuses the multiply-add (FMA, one rounding),
//     so its outputs differ from scalar by the FMA rounding only —
//     bounded by a few ULP per accumulation step — and are bitwise stable
//     at that level.
//   - k-means distances are bitwise identical at both levels (lanes map
//     to centroids; each lane's accumulation order matches the scalar
//     loop and no FMA is used).
//   - the training step's elementwise kernels (column_sums,
//     relu_forward/relu_backward, adam_update) are bitwise identical at
//     both levels: each lane runs the scalar loop's IEEE operations in
//     its order, with no FMA, and the selects reproduce the scalar
//     ternaries on NaN and -0.
//   - sigmoid/BCE transcendentals: kScalar calls libm; kAVX2 uses a
//     documented polynomial exp/log1p pair accurate to a few ULP (see
//     sigmoid_terms below).
//   At any fixed level, every kernel is bitwise identical across thread
//   counts and chunkings. The active level is mixed into fault and
//   governor trace hashes, so replay logs pin it; replay under a
//   different ANOLE_SIMD is detected as a trace mismatch.
//
// Every AVX2 entry point returns with clean upper-YMM state (a vzeroupper
// on every exit): dirty state left on a thread makes each later SSE
// instruction there pay for it (tests/test_simd.cpp reads XINUSE).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace anole::simd {

/// Dispatch levels, ordered by capability. The values are mixed into the
/// fault and governor trace hashes, so they must never change: recorded
/// traces stay comparable only while they hold.
enum class Level : std::uint8_t { kScalar = 0, kAVX2 = 2 };

/// Best level the CPU supports (CPUID probe, cached).
Level detected_level();

/// Level the kernels run at: `set_level()` override if set, else the
/// ANOLE_SIMD environment variable (values: scalar, avx2; anything else
/// fails an ANOLE_CHECK), else `detected_level()`. Requests above the
/// detected level clamp down so a pinned replay degrades loudly
/// (trace-hash mismatch) instead of executing illegal instructions.
Level active_level();

/// Runtime override (wins over ANOLE_SIMD; clamped to the detected
/// level). Used by tests and benches to pin a dispatch path.
void set_level(Level level);

/// Drops the `set_level()` override, restoring env/detected resolution.
void reset_level();

/// Stable lowercase name ("scalar", "avx2").
const char* level_name(Level level);

/// --- fp32 GEMM row kernel -------------------------------------------
/// Computes rows [ilo, ihi) of C = A'·B over the full [0, n) column and
/// [0, k) depth extent, with A read as pa[i*a_row_stride +
/// kk*a_col_stride] (serves matmul and both transposed entry points).
/// Cache blocking and the zero-skip on A elements are identical at every
/// level; each output element accumulates in ascending kk order. The AVX2
/// narrow kernels (n <= 64) drop the zero test only where that leaves
/// every bit as the skip would: all of B finite, the default MXCSR
/// control bits, and no underflow in the rows run that way (they clear
/// the thread's sticky underflow flag to watch for it, then restore it).
/// When `pbias` is non-null, pbias[j] is added to every output element of
/// column j after its last accumulation step: one rounding, the same bits
/// as a separate bias pass over C.
void gemm_rows(Level level, std::size_t ilo, std::size_t ihi, std::size_t k,
               std::size_t n, const float* pa, std::size_t a_row_stride,
               std::size_t a_col_stride, const float* pb, const float* pbias,
               float* pc);

/// --- training-step elementwise kernels ------------------------------
/// Bitwise identical at both levels (see the contract above).

/// sums[c] = the sum of x[r * cols + c] over r: each column added from +0
/// in ascending row order, one rounding per add.
void column_sums(Level level, const float* x, std::size_t rows,
                 std::size_t cols, float* sums);

/// y[i] = x[i] > 0 ? x[i] : 0, so NaN and -0 give +0.
void relu_forward(Level level, const float* x, std::size_t n, float* y);

/// grad[i] = x[i] <= 0 ? 0 : upstream[i], so a NaN input passes the
/// upstream gradient through. `grad` may alias `upstream`.
void relu_backward(Level level, const float* x, const float* upstream,
                   std::size_t n, float* grad);

/// One Adam step's per-tensor constants: learning rate, moment decays,
/// epsilon, L2 weight decay and the two bias corrections 1 - beta^t.
struct AdamStep {
  float lr = 0.0f;
  float beta1 = 0.0f;
  float beta2 = 0.0f;
  float epsilon = 0.0f;
  float weight_decay = 0.0f;
  float bias1 = 1.0f;
  float bias2 = 1.0f;
};

/// Adam with bias correction over n parameters, in place:
///   g = grad + wd * value
///   m = flush(b1 * m + (1 - b1) * g),  v = flush(b2 * v + (1 - b2) * g * g)
///   value = flush(value - lr * (m / bias1) / (sqrt(v / bias2) + eps))
/// where flush(x) is +0 when |x| < FLT_MIN (a subnormal or zero) and x
/// otherwise, NaN included.
void adam_update(Level level, const AdamStep& step, std::size_t n,
                 float* value, const float* grad, float* m, float* v);

/// --- int8 GEMM kernels ----------------------------------------------

/// The int16 execution layout pads depth to a multiple of this so the
/// widest (AVX2) dot product has no scalar tail.
inline constexpr std::size_t kQgemmDepthMultiple = 16;

/// Symmetric int8 code for `value * inv_scale`: rounded to nearest even
/// (the default FP environment, matching cvtps2dq), clamped to
/// [-127, 127]; a NaN product quantizes to 0. The one rule behind every
/// int8 quantizer (weights, activations, the public row helpers).
std::int32_t quantize_code(float value, float inv_scale);

/// Symmetric scale for a row with the given absolute maximum:
/// abs_max / 127, or 1 when that is not a positive finite number.
float row_scale_for(float abs_max);

/// Quantizes one fp32 row into int8 codes stored as padded int16 (the
/// pmaddwd idiom's input), returning the symmetric row scale. Codes and
/// scale are identical at every level (round-to-nearest-even throughout):
/// a NaN element adds nothing to the abs-max and quantizes to 0.
float quantize_row_int16(Level level, std::span<const float> src,
                         std::int16_t* dst, std::size_t padded);

/// Computes rows [ilo, ihi) of the int8 GEMM with fused dequant + bias:
/// py[i*n + j] = float(dot(xq row i, pw channel j)) * (xscale[i] *
/// pscale[j]) + pbias[j]. `kp` is the padded depth (multiple of
/// kQgemmDepthMultiple); pbias may be null. Exact int32 accumulation:
/// bitwise identical at every level, chunking, and thread count.
void qgemm_rows(Level level, std::size_t ilo, std::size_t ihi, std::size_t n,
                std::size_t kp, const std::int16_t* xq, const float* xscale,
                const std::int16_t* pw, const float* pscale,
                const float* pbias, float* py);

/// --- k-means distance kernel ----------------------------------------

/// Centroid count is padded to a multiple of this in the transposed
/// layout below (one vector lane per centroid).
inline constexpr std::size_t kKmeansLaneMultiple = 4;

/// --- sigmoid / BCE transcendental kernel ----------------------------

/// p[i] = 1 / (1 + exp(-z[i])) and, when `log_term` is non-null,
/// log_term[i] = log1p(exp(-|z[i]|)) — the transcendental core of the
/// logistic sigmoid and of the numerically stable binary cross-entropy.
/// `p` may alias `z` (in-place sigmoid). kScalar evaluates exactly the
/// libm expressions above, bitwise identical to the historical scalar
/// loss loop. kAVX2 evaluates a Cephes-style polynomial exp and an
/// atanh-series log1p: like the FMA contraction in gemm_rows, the AVX2
/// level trades bitwise agreement with libm for throughput — outputs
/// agree to a few ULP relative (the exp argument is clamped to
/// [-87.33, 88.0], so inputs past sigmoid saturation differ from libm by
/// < 1.1e-38 absolute) and are bitwise stable at that level across calls
/// and thread counts.
void sigmoid_terms(Level level, const float* z, std::size_t n, float* p,
                   float* log_term);

/// dist[j] = squared L2 distance (double) between `point` and centroid j,
/// for all j in [0, k). Centroids are given transposed and widened:
/// centroids_t[d * k_stride + j] = double(centroid_j[d]), with k_stride a
/// multiple of kKmeansLaneMultiple (>= k; the pad lanes are read but
/// their outputs ignored — dist must have k_stride slots). Each lane
/// accumulates (double(point[d]) - c)² in ascending d order with separate
/// multiply and add, so results are bitwise identical at both levels and
/// to the classic per-centroid scalar loop.
void kmeans_distances(Level level, const float* point, std::size_t dims,
                      const double* centroids_t, std::size_t k_stride,
                      double* dist);

}  // namespace anole::simd
