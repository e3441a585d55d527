#include "tensor/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/check.hpp"
#include "util/fault.hpp"

// GCC honors per-function optimize attributes; the scalar kernels use
// them to suppress autovectorization so the "scalar" level is a genuine
// one-lane reference (Release -O3 would otherwise re-vectorize it).
#if defined(__GNUC__) && !defined(__clang__)
#define ANOLE_NO_AUTOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define ANOLE_NO_AUTOVEC
#endif

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define ANOLE_HAVE_AVX2_TARGET 1
#define ANOLE_TARGET_AVX2 __attribute__((target("avx2,fma")))
#else
#define ANOLE_HAVE_AVX2_TARGET 0
#define ANOLE_TARGET_AVX2
#endif

namespace anole::simd {
namespace {

/// Cache blocking shared by every fp32 GEMM level: a kJBlock-float
/// segment of the B and C rows (1 KiB) stays in L1 while a kKBlock-row
/// panel of B is reused across every row of a chunk. Accumulation over kk
/// stays ascending for every output element, so blocking never changes
/// results within a level.
constexpr std::size_t kJBlock = 256;
constexpr std::size_t kKBlock = 64;

/// Output channels per qgemm cache block (matches the historical qgemm
/// kernel): a 64-channel panel of int16 weights plus the matching output
/// segment stays L1-resident while a chunk's rows stream through it.
constexpr std::size_t kChannelBlock = 64;

/// --- level resolution -----------------------------------------------

Level probe_cpu() {
#if ANOLE_HAVE_AVX2_TARGET
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Level::kAVX2;
  }
#endif
  return Level::kScalar;
}

Level clamp_to_detected(Level level) {
  return std::min(level, detected_level());
}

/// Publishes the level as the fault trace-context tag (encoded level+1 so
/// an unresolved process reads 0). Governor hashes read the level
/// directly; fault hashes go through this tag because util sits below
/// tensor in the layering DAG.
void publish_level(Level level) {
  fault::set_trace_context(static_cast<std::uint64_t>(level) + 1);
}

Level parse_env_level() {
  const char* env = std::getenv("ANOLE_SIMD");
  if (env == nullptr || *env == '\0') return detected_level();
  const std::string_view name(env);
  Level requested = Level::kScalar;
  if (name == "scalar") {
    requested = Level::kScalar;
  } else if (name == "avx2") {
    requested = Level::kAVX2;
  } else {
    // A typo here would silently break replay pinning, so fail loudly.
    ANOLE_CHECK(false, "ANOLE_SIMD: unknown level '", name,
                "' (expected one of: scalar, avx2)");
  }
  return clamp_to_detected(requested);
}

/// set_level override, or kNoOverride (negative, so never a valid level)
/// when unset.
constexpr int kNoOverride = -1;
std::atomic<int> g_override{kNoOverride};

Level env_level() {
  static const Level level = [] {
    const Level resolved = parse_env_level();
    publish_level(resolved);
    return resolved;
  }();
  return level;
}

/// --- fp32 GEMM kernels ----------------------------------------------

ANOLE_NO_AUTOVEC
void gemm_rows_scalar(std::size_t ilo, std::size_t ihi, std::size_t k,
                      std::size_t n, const float* pa, std::size_t ars,
                      std::size_t acs, const float* pb, const float* pbias,
                      float* pc) {
  for (std::size_t jb = 0; jb < n; jb += kJBlock) {
    const std::size_t jhi = std::min(n, jb + kJBlock);
    for (std::size_t kb = 0; kb < k; kb += kKBlock) {
      const std::size_t khi = std::min(k, kb + kKBlock);
      for (std::size_t i = ilo; i < ihi; ++i) {
        float* crow = pc + i * n;
        if (kb == 0) std::fill(crow + jb, crow + jhi, 0.0f);
        for (std::size_t kk = kb; kk < khi; ++kk) {
          const float aik = pa[i * ars + kk * acs];
          if (aik == 0.0f) continue;
          const float* brow = pb + kk * n;
          for (std::size_t j = jb; j < jhi; ++j) crow[j] += aik * brow[j];
        }
        if (pbias != nullptr && khi == k) {
          for (std::size_t j = jb; j < jhi; ++j) crow[j] += pbias[j];
        }
      }
    }
  }
}

#if ANOLE_HAVE_AVX2_TARGET
/// Lane-enable masks for `_mm256_maskload_ps`/`_mm256_maskstore_ps`:
/// `kTailMask + (8 - t)` enables the first `t` lanes. A masked fused
/// multiply-add is the same single-rounding operation per active lane as
/// the scalar `std::fmaf` it replaces, and inactive lanes are neither
/// read nor written, so tail handling stays bitwise identical to the
/// historical scalar-fma tail.
alignas(32) constexpr std::int32_t kTailMask[16] = {-1, -1, -1, -1, -1, -1,
                                                   -1, -1, 0,  0,  0,  0,
                                                   0,  0,  0,  0};

/// Lane mask enabling the first `n % 8` lanes, or all eight when `n` is a
/// multiple of 8 (the last vector of an n-wide row).
ANOLE_TARGET_AVX2 inline __m256i last_vector_mask(std::size_t n) {
  const std::size_t tail = n % 8;
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
      kTailMask + (tail == 0 ? 0 : 8 - tail)));
}

/// Clears the upper YMM state when an AVX2 entry point returns, on every
/// path. GCC places its own vzeroupper only when optimizing; without one
/// the dirty state makes every later SSE instruction on the thread pay a
/// transition penalty. One per entry point, never in an inner kernel.
struct UpperStateGuard {
  ANOLE_TARGET_AVX2 ~UpperStateGuard() { _mm256_zeroupper(); }
};

/// MXCSR fields: the sticky underflow flag, the control bits (exception
/// masks, rounding, flush-to-zero, denormals-are-zero) and their default:
/// every exception masked, round to nearest, no flushing.
constexpr unsigned kMxcsrUnderflow = 0x10;
constexpr unsigned kMxcsrControl = 0xFFC0;
constexpr unsigned kMxcsrDefaultControl = 0x1F80;

/// Narrow-output kernel: the whole C row lives in `kVecs` register
/// accumulators across the k loop instead of a load/store round trip per
/// k (the blocked path below is store-forwarding-bound at the skinny
/// widths the NN layers run: 5, 16, 24, 42). `kRows` C rows advance
/// together so one set of B-row loads feeds several accumulator rows —
/// and in the transpose-A layouts (`acs > 1`) the per-row A scalars for
/// a k step sit in the same cache line. The last vector is masked so any
/// n in ((kVecs-1)*8, kVecs*8] fits. Per output element the accumulation
/// is still one fused multiply-add per k, kk ascending, independent of
/// row grouping and chunk boundaries, so results are bitwise identical
/// to the blocked path at any thread count. No ymm value crosses a call
/// boundary (the mask is rebuilt from `n`): GCC emits no vzeroupper on a
/// tail call that passes one, and the dirty upper state it leaves behind
/// makes every later SSE instruction on the thread pay a transition
/// penalty.
///
/// `kSkipZeros` keeps the blocked path's zero test on each A coefficient
/// and computes every row. Without it a zero coefficient still runs its
/// fused multiply-add (see gemm_rows_avx2_narrow_entry for when that is
/// exact), and the kernel stops at the first row group whose run raised
/// the underflow flag, returning its first row; it returns `ihi` when
/// every row is done. A non-null `pbias` is added to the accumulators
/// just before they are stored.
template <int kVecs, int kRows, bool kSkipZeros>
ANOLE_TARGET_AVX2 std::size_t gemm_rows_avx2_narrow(
    std::size_t ilo, std::size_t ihi, std::size_t k, std::size_t n,
    const float* pa, std::size_t ars, std::size_t acs, const float* pb,
    const float* pbias, float* pc) {
  const __m256i last_mask = last_vector_mask(n);
  std::size_t i = ilo;
  for (; i + kRows <= ihi; i += kRows) {
    __m256 acc[kRows][kVecs];
    for (int r = 0; r < kRows; ++r) {
      for (int v = 0; v < kVecs; ++v) acc[r][v] = _mm256_setzero_ps();
    }
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* brow = pb + kk * n;
      __m256 b[kVecs];
      for (int v = 0; v + 1 < kVecs; ++v) b[v] = _mm256_loadu_ps(brow + 8 * v);
      b[kVecs - 1] = _mm256_maskload_ps(brow + 8 * (kVecs - 1), last_mask);
      for (int r = 0; r < kRows; ++r) {
        const float aik = pa[(i + r) * ars + kk * acs];
        // Matches the scalar kernel's zero skip: a zero coefficient must
        // contribute nothing, even against non-finite B entries.
        if constexpr (kSkipZeros) {
          if (aik == 0.0f) continue;
        }
        const __m256 va = _mm256_set1_ps(aik);
        for (int v = 0; v < kVecs; ++v) {
          acc[r][v] = _mm256_fmadd_ps(va, b[v], acc[r][v]);
        }
      }
    }
    if (pbias != nullptr) {
      for (int r = 0; r < kRows; ++r) {
        for (int v = 0; v + 1 < kVecs; ++v) {
          acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_loadu_ps(pbias + 8 * v));
        }
        acc[r][kVecs - 1] = _mm256_add_ps(
            acc[r][kVecs - 1],
            _mm256_maskload_ps(pbias + 8 * (kVecs - 1), last_mask));
      }
    }
    for (int r = 0; r < kRows; ++r) {
      float* crow = pc + (i + r) * n;
      for (int v = 0; v + 1 < kVecs; ++v) {
        _mm256_storeu_ps(crow + 8 * v, acc[r][v]);
      }
      _mm256_maskstore_ps(crow + 8 * (kVecs - 1), last_mask, acc[r][kVecs - 1]);
    }
    if constexpr (!kSkipZeros) {
      if ((_mm_getcsr() & kMxcsrUnderflow) != 0) return i;
    }
  }
  if constexpr (kRows > 1) {
    return gemm_rows_avx2_narrow<kVecs, 1, kSkipZeros>(i, ihi, k, n, pa, ars,
                                                       acs, pb, pbias, pc);
  }
  return ihi;
}

/// True when none of the `count` floats at `p` is infinite or NaN: one
/// compare per eight lanes, the last vector masked.
ANOLE_TARGET_AVX2 bool all_finite(const float* p, std::size_t count) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  // |x| < inf is false for ±inf and (unordered) NaN.
  __m256 finite = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
  std::size_t t = 0;
  for (; t + 8 <= count; t += 8) {
    finite = _mm256_and_ps(
        finite, _mm256_cmp_ps(_mm256_and_ps(_mm256_loadu_ps(p + t), abs_mask),
                              inf, _CMP_LT_OQ));
  }
  if (t < count) {
    // Masked-off lanes read as 0, which is finite.
    const __m256 tail = _mm256_maskload_ps(p + t, last_vector_mask(count));
    finite = _mm256_and_ps(
        finite, _mm256_cmp_ps(_mm256_and_ps(tail, abs_mask), inf, _CMP_LT_OQ));
  }
  return _mm256_movemask_ps(finite) == 0xFF;
}

/// Narrow entry for one row-group shape: runs rows without the zero test
/// wherever that gives the skipping loop's bits (DESIGN.md §13). The
/// accumulators start at +0, and with every B entry finite a zero
/// coefficient adds a ±0 product, which leaves any accumulator but −0
/// unchanged. In the default floating-point environment an accumulator
/// only becomes −0 when an FMA rounds a nonzero result to zero, and that
/// raises the sticky underflow flag. So the flag is cleared first, and
/// from the first row group whose run raised it the rows are recomputed
/// with the zero test; the caller's flag is restored on top. A call with a
/// single row group (the per-frame m = 1 serving GEMMs, whose B is a
/// whole weight matrix) keeps the zero test rather than pay a pass over B.
template <int kVecs, int kRows>
ANOLE_TARGET_AVX2 void gemm_rows_avx2_narrow_entry(
    std::size_t ilo, std::size_t ihi, std::size_t k, std::size_t n,
    const float* pa, std::size_t ars, std::size_t acs, const float* pb,
    const float* pbias, float* pc) {
  std::size_t done = ilo;
  if (ihi - ilo > static_cast<std::size_t>(kRows)) {
    const unsigned csr = _mm_getcsr();
    if ((csr & kMxcsrControl) == kMxcsrDefaultControl &&
        all_finite(pb, k * n)) {
      _mm_setcsr(csr & ~kMxcsrUnderflow);
      done = gemm_rows_avx2_narrow<kVecs, kRows, false>(
          ilo, ihi, k, n, pa, ars, acs, pb, pbias, pc);
      _mm_setcsr(_mm_getcsr() | (csr & kMxcsrUnderflow));
    }
  }
  if (done < ihi) {
    gemm_rows_avx2_narrow<kVecs, kRows, true>(done, ihi, k, n, pa, ars, acs,
                                              pb, pbias, pc);
  }
}

ANOLE_TARGET_AVX2
void gemm_rows_avx2(std::size_t ilo, std::size_t ihi, std::size_t k,
                    std::size_t n, const float* pa, std::size_t ars,
                    std::size_t acs, const float* pb, const float* pbias,
                    float* pc) {
  const UpperStateGuard clean_exit;
  if (n > 0 && n <= 64) {
    // Row-group widths keep every live accumulator (kRows * kVecs), the
    // shared B vectors, and the broadcast register inside the 16 ymm
    // registers; wider outputs drop to fewer rows per group.
    switch ((n + 7) / 8) {
      case 1:
        gemm_rows_avx2_narrow_entry<1, 8>(ilo, ihi, k, n, pa, ars, acs,
                                          pb, pbias, pc);
        return;
      case 2:
        gemm_rows_avx2_narrow_entry<2, 6>(ilo, ihi, k, n, pa, ars, acs,
                                          pb, pbias, pc);
        return;
      case 3:
        gemm_rows_avx2_narrow_entry<3, 3>(ilo, ihi, k, n, pa, ars, acs,
                                          pb, pbias, pc);
        return;
      case 4:
        gemm_rows_avx2_narrow_entry<4, 2>(ilo, ihi, k, n, pa, ars, acs,
                                          pb, pbias, pc);
        return;
      case 5:
        gemm_rows_avx2_narrow_entry<5, 1>(ilo, ihi, k, n, pa, ars, acs,
                                          pb, pbias, pc);
        return;
      case 6:
        gemm_rows_avx2_narrow_entry<6, 1>(ilo, ihi, k, n, pa, ars, acs,
                                          pb, pbias, pc);
        return;
      case 7:
        gemm_rows_avx2_narrow_entry<7, 1>(ilo, ihi, k, n, pa, ars, acs,
                                          pb, pbias, pc);
        return;
      default:
        gemm_rows_avx2_narrow_entry<8, 1>(ilo, ihi, k, n, pa, ars, acs,
                                          pb, pbias, pc);
        return;
    }
  }
  for (std::size_t jb = 0; jb < n; jb += kJBlock) {
    const std::size_t jhi = std::min(n, jb + kJBlock);
    const std::size_t tail = (jhi - jb) % 8;
    const std::size_t jvec = jhi - tail;
    const __m256i tail_mask = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kTailMask + (8 - tail)));
    for (std::size_t kb = 0; kb < k; kb += kKBlock) {
      const std::size_t khi = std::min(k, kb + kKBlock);
      for (std::size_t i = ilo; i < ihi; ++i) {
        float* crow = pc + i * n;
        if (kb == 0) std::fill(crow + jb, crow + jhi, 0.0f);
        for (std::size_t kk = kb; kk < khi; ++kk) {
          const float aik = pa[i * ars + kk * acs];
          if (aik == 0.0f) continue;
          const float* brow = pb + kk * n;
          // FMA: one rounding per multiply-add, in the full vector body
          // and the masked tail alike, so the whole level is "fused
          // everywhere"; tail membership depends only on (n, jb), never
          // on threading.
          const __m256 va = _mm256_set1_ps(aik);
          for (std::size_t j = jb; j + 8 <= jhi; j += 8) {
            _mm256_storeu_ps(
                crow + j,
                _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + j),
                                _mm256_loadu_ps(crow + j)));
          }
          if (tail != 0) {
            _mm256_maskstore_ps(
                crow + jvec, tail_mask,
                _mm256_fmadd_ps(va, _mm256_maskload_ps(brow + jvec, tail_mask),
                                _mm256_maskload_ps(crow + jvec, tail_mask)));
          }
        }
        if (pbias != nullptr && khi == k) {
          for (std::size_t j = jb; j + 8 <= jhi; j += 8) {
            _mm256_storeu_ps(crow + j, _mm256_add_ps(_mm256_loadu_ps(crow + j),
                                                     _mm256_loadu_ps(pbias + j)));
          }
          if (tail != 0) {
            _mm256_maskstore_ps(
                crow + jvec, tail_mask,
                _mm256_add_ps(_mm256_maskload_ps(crow + jvec, tail_mask),
                              _mm256_maskload_ps(pbias + jvec, tail_mask)));
          }
        }
      }
    }
  }
}
#endif  // ANOLE_HAVE_AVX2_TARGET

/// --- activation quantization ----------------------------------------

ANOLE_NO_AUTOVEC
float quantize_row_int16_scalar(std::span<const float> src, std::int16_t* dst,
                                std::size_t padded) {
  const std::size_t n = src.size();
  // std::max keeps its first argument when the comparison fails, so a NaN
  // element adds nothing to the abs-max.
  float abs_max = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    abs_max = std::max(abs_max, std::fabs(src[i]));
  }
  const float scale = row_scale_for(abs_max);
  const float inv_scale = 1.0f / scale;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::int16_t>(quantize_code(src[i], inv_scale));
  }
  std::fill(dst + n, dst + padded, std::int16_t{0});
  return scale;
}

#if ANOLE_HAVE_AVX2_TARGET
/// Loads the first `t` (0..8) floats at `p`; the other lanes read as 0.
ANOLE_TARGET_AVX2 inline __m256 load_first(const float* p, std::size_t t) {
  return _mm256_maskload_ps(
      p, _mm256_loadu_si256(
             reinterpret_cast<const __m256i*>(kTailMask + (8 - t))));
}

/// quantize_code on eight lanes: NaN lanes are zeroed before the clamp
/// (maxps would otherwise turn them into -127), then cvtps2dq rounds to
/// nearest even like std::nearbyint.
ANOLE_TARGET_AVX2 inline __m256i quantize_lanes(__m256 v, __m256 inv_scale) {
  __m256 scaled = _mm256_mul_ps(v, inv_scale);
  scaled = _mm256_and_ps(scaled, _mm256_cmp_ps(scaled, scaled, _CMP_ORD_Q));
  return _mm256_cvtps_epi32(_mm256_min_ps(
      _mm256_max_ps(scaled, _mm256_set1_ps(-127.0f)), _mm256_set1_ps(127.0f)));
}

/// Sixteen codes from two eight-lane halves, in order.
ANOLE_TARGET_AVX2 inline void store_codes(std::int16_t* dst, __m256 lo,
                                          __m256 hi, __m256 inv_scale) {
  // packs works within 128-bit lanes; the permute restores order.
  const __m256i packed = _mm256_permute4x64_epi64(
      _mm256_packs_epi32(quantize_lanes(lo, inv_scale),
                         quantize_lanes(hi, inv_scale)),
      0xD8);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), packed);
}

ANOLE_TARGET_AVX2
float quantize_row_int16_avx2(std::span<const float> src, std::int16_t* dst,
                              std::size_t padded) {
  const UpperStateGuard clean_exit;
  const std::size_t n = src.size();
  const float* p = src.data();
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  // maxps returns its second operand when either is NaN, so with the
  // accumulator second a NaN element leaves the max untouched, as in the
  // scalar loop. Full chunks load unmasked; the final partial chunk loads
  // once through a lane mask, its inactive lanes reading as 0.
  __m256 vmax = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vmax = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(p + i), abs_mask),
                         vmax);
  }
  if (i < n) {
    vmax = _mm256_max_ps(_mm256_and_ps(load_first(p + i, n - i), abs_mask),
                         vmax);
  }
  __m128 fold = _mm_max_ps(_mm256_castps256_ps128(vmax),
                           _mm256_extractf128_ps(vmax, 1));
  fold = _mm_max_ps(fold, _mm_shuffle_ps(fold, fold, 0x4E));
  fold = _mm_max_ps(fold, _mm_shuffle_ps(fold, fold, 0xB1));
  const float scale = row_scale_for(_mm_cvtss_f32(fold));
  const __m256 vinv = _mm256_set1_ps(1.0f / scale);
  i = 0;
  for (; i + 16 <= n; i += 16) {
    store_codes(dst + i, _mm256_loadu_ps(p + i), _mm256_loadu_ps(p + i + 8),
                vinv);
  }
  if (i < n) {
    // The last 1..15 elements: zero lanes quantize to 0, so the sixteen
    // stored codes also write the first padding slots (padded is a
    // multiple of 16, so they are in bounds).
    const std::size_t t = n - i;
    store_codes(dst + i, load_first(p + i, std::min<std::size_t>(t, 8)),
                t > 8 ? load_first(p + i + 8, t - 8) : _mm256_setzero_ps(),
                vinv);
    i += 16;
  }
  std::fill(dst + i, dst + padded, std::int16_t{0});
  return scale;
}
#endif  // ANOLE_HAVE_AVX2_TARGET

/// --- int8 GEMM kernels ----------------------------------------------

ANOLE_NO_AUTOVEC
void qgemm_rows_scalar(std::size_t ilo, std::size_t ihi, std::size_t n,
                       std::size_t kp, const std::int16_t* xq,
                       const float* xscale, const std::int16_t* pw,
                       const float* pscale, const float* pbias, float* py) {
  for (std::size_t jb = 0; jb < n; jb += kChannelBlock) {
    const std::size_t jhi = std::min(n, jb + kChannelBlock);
    for (std::size_t i = ilo; i < ihi; ++i) {
      const std::int16_t* xrow = xq + i * kp;
      const float row_scale = xscale[i];
      float* yrow = py + i * n;
      std::size_t j = jb;
      for (; j + 1 < jhi; j += 2) {
        const std::int16_t* w0 = pw + j * kp;
        const std::int16_t* w1 = w0 + kp;
        std::int32_t acc0 = 0;
        std::int32_t acc1 = 0;
        for (std::size_t kk = 0; kk < kp; ++kk) {
          const std::int32_t xv = xrow[kk];
          acc0 += xv * w0[kk];
          acc1 += xv * w1[kk];
        }
        const float v0 = static_cast<float>(acc0) * (row_scale * pscale[j]);
        const float v1 =
            static_cast<float>(acc1) * (row_scale * pscale[j + 1]);
        yrow[j] = pbias == nullptr ? v0 : v0 + pbias[j];
        yrow[j + 1] = pbias == nullptr ? v1 : v1 + pbias[j + 1];
      }
      for (; j < jhi; ++j) {
        const std::int16_t* w0 = pw + j * kp;
        std::int32_t acc = 0;
        for (std::size_t kk = 0; kk < kp; ++kk) {
          acc += static_cast<std::int32_t>(xrow[kk]) * w0[kk];
        }
        const float value = static_cast<float>(acc) * (row_scale * pscale[j]);
        yrow[j] = pbias == nullptr ? value : value + pbias[j];
      }
    }
  }
}

#if ANOLE_HAVE_AVX2_TARGET
ANOLE_TARGET_AVX2
void qgemm_rows_avx2(std::size_t ilo, std::size_t ihi, std::size_t n,
                     std::size_t kp, const std::int16_t* xq,
                     const float* xscale, const std::int16_t* pw,
                     const float* pscale, const float* pbias, float* py) {
  const UpperStateGuard clean_exit;
  for (std::size_t jb = 0; jb < n; jb += kChannelBlock) {
    const std::size_t jhi = std::min(n, jb + kChannelBlock);
    for (std::size_t i = ilo; i < ihi; ++i) {
      const std::int16_t* xrow = xq + i * kp;
      const float row_scale = xscale[i];
      float* yrow = py + i * n;
      std::size_t j = jb;
      // 256-bit pmaddwd: 16 int16 MACs per instruction, four channels per
      // iteration; each accumulator folds to 128 bits and goes through
      // one unpack tree that reduces all four at once (amortizing the
      // horizontal fold that dominates short-depth epilogues). The
      // dequant matches the scalar formula exactly: cvtdq2ps ==
      // static_cast<float>(int32), and the scale product rounds once per
      // lane just like (row_scale * pscale[j]). int32 sums are exact, so
      // this is bitwise identical to the scalar level.
      const __m128 vrs = _mm_set1_ps(row_scale);
      for (; j + 4 <= jhi; j += 4) {
        const std::int16_t* w0 = pw + j * kp;
        const std::int16_t* w1 = w0 + kp;
        const std::int16_t* w2 = w1 + kp;
        const std::int16_t* w3 = w2 + kp;
        __m256i a0 = _mm256_setzero_si256();
        __m256i a1 = _mm256_setzero_si256();
        __m256i a2 = _mm256_setzero_si256();
        __m256i a3 = _mm256_setzero_si256();
        for (std::size_t kk = 0; kk < kp; kk += 16) {
          const __m256i xv = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(xrow + kk));
          a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(xv, _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(w0 + kk))));
          a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(xv, _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(w1 + kk))));
          a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(xv, _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(w2 + kk))));
          a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(xv, _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(w3 + kk))));
        }
        const __m128i f0 = _mm_add_epi32(_mm256_castsi256_si128(a0),
                                         _mm256_extracti128_si256(a0, 1));
        const __m128i f1 = _mm_add_epi32(_mm256_castsi256_si128(a1),
                                         _mm256_extracti128_si256(a1, 1));
        const __m128i f2 = _mm_add_epi32(_mm256_castsi256_si128(a2),
                                         _mm256_extracti128_si256(a2, 1));
        const __m128i f3 = _mm_add_epi32(_mm256_castsi256_si128(a3),
                                         _mm256_extracti128_si256(a3, 1));
        const __m128i t01 = _mm_add_epi32(_mm_unpacklo_epi32(f0, f1),
                                          _mm_unpackhi_epi32(f0, f1));
        const __m128i t23 = _mm_add_epi32(_mm_unpacklo_epi32(f2, f3),
                                          _mm_unpackhi_epi32(f2, f3));
        const __m128i sums = _mm_add_epi32(
            _mm_unpacklo_epi64(t01, t23), _mm_unpackhi_epi64(t01, t23));
        const __m128 scaled = _mm_mul_ps(
            _mm_cvtepi32_ps(sums), _mm_mul_ps(vrs, _mm_loadu_ps(pscale + j)));
        const __m128 out = pbias == nullptr
            ? scaled
            : _mm_add_ps(scaled, _mm_loadu_ps(pbias + j));
        _mm_storeu_ps(yrow + j, out);
      }
      for (; j < jhi; ++j) {
        const std::int16_t* w0 = pw + j * kp;
        std::int32_t acc = 0;
        for (std::size_t kk = 0; kk < kp; ++kk) {
          acc += static_cast<std::int32_t>(xrow[kk]) * w0[kk];
        }
        const float value = static_cast<float>(acc) * (row_scale * pscale[j]);
        yrow[j] = pbias == nullptr ? value : value + pbias[j];
      }
    }
  }
}
#endif  // ANOLE_HAVE_AVX2_TARGET

/// --- sigmoid / BCE transcendental kernels ---------------------------

ANOLE_NO_AUTOVEC
void sigmoid_terms_scalar(const float* z, std::size_t n, float* p,
                          float* log_term) {
  for (std::size_t i = 0; i < n; ++i) {
    const float zi = z[i];
    // Exactly the historical loss-loop expressions; this path defines
    // the reference values the AVX2 polynomial is tested against.
    p[i] = 1.0f / (1.0f + std::exp(-zi));
    if (log_term != nullptr) {
      log_term[i] = std::log1p(std::exp(-std::abs(zi)));
    }
  }
}

#if ANOLE_HAVE_AVX2_TARGET
/// Cephes-style exp: split x = n·ln2 + r with |r| <= ln2/2, evaluate a
/// degree-6 polynomial for exp(r) (FMA Horner), scale by 2^n through the
/// exponent field. The clamp to [-87.33, 88.0] keeps 2^n normal at both
/// ends (no subnormal or infinity encodings), so inputs past sigmoid
/// saturation return ~1.07e-38 instead of libm's subnormal/zero — an
/// absolute error below 1.1e-38. Elsewhere the result is within a few
/// ULP of libm.
ANOLE_TARGET_AVX2 inline __m256 exp_avx2(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  x = _mm256_min_ps(x, _mm256_set1_ps(88.0f));
  x = _mm256_max_ps(x, _mm256_set1_ps(-87.3365478515625f));
  __m256 fx = _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                              _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  // r = x - fx*ln2, with ln2 split so the reduction stays exact.
  __m256 r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(r, r), _mm256_add_ps(r, one));
  const __m256i exponent = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(fx), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(exponent));
}

/// log1p(u) for u in [0, 1] via the atanh identity log1p(u) =
/// 2·atanh(u / (2 + u)): s = u/(2+u) lies in [0, 1/3], where the odd
/// series 2s·(1 + s²/3 + s⁴/5 + s⁶/7 + s⁸/9 + s¹⁰/11) converges to a
/// relative error below 1e-7 — and degrades gracefully to log1p(u) ≈ u
/// for tiny u, so the tiny-e tail of the BCE log term keeps full
/// relative accuracy.
ANOLE_TARGET_AVX2 inline __m256 log1p_unit_avx2(__m256 u) {
  const __m256 s = _mm256_div_ps(u, _mm256_add_ps(_mm256_set1_ps(2.0f), u));
  const __m256 s2 = _mm256_mul_ps(s, s);
  __m256 poly = _mm256_set1_ps(1.0f / 11.0f);
  poly = _mm256_fmadd_ps(poly, s2, _mm256_set1_ps(1.0f / 9.0f));
  poly = _mm256_fmadd_ps(poly, s2, _mm256_set1_ps(1.0f / 7.0f));
  poly = _mm256_fmadd_ps(poly, s2, _mm256_set1_ps(1.0f / 5.0f));
  poly = _mm256_fmadd_ps(poly, s2, _mm256_set1_ps(1.0f / 3.0f));
  poly = _mm256_fmadd_ps(poly, s2, _mm256_set1_ps(1.0f));
  return _mm256_mul_ps(_mm256_add_ps(s, s), poly);
}

ANOLE_TARGET_AVX2
void sigmoid_terms_avx2(const float* z, std::size_t n, float* p,
                        float* log_term) {
  const UpperStateGuard clean_exit;
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 zv = _mm256_loadu_ps(z + i);
    // e = exp(-|z|) in (0, 1]: one transcendental feeds both outputs,
    // and σ(z) = z >= 0 ? 1/(1+e) : e/(1+e) never overflows.
    const __m256 e = exp_avx2(_mm256_or_ps(zv, sign_bit));
    const __m256 denom = _mm256_add_ps(one, e);
    const __m256 sig = _mm256_blendv_ps(_mm256_div_ps(e, denom),
                                        _mm256_div_ps(one, denom),
                                        _mm256_cmp_ps(zv, zero, _CMP_GE_OQ));
    _mm256_storeu_ps(p + i, sig);
    if (log_term != nullptr) {
      _mm256_storeu_ps(log_term + i, log1p_unit_avx2(e));
    }
  }
  // libm tail: membership depends only on n, so the level stays bitwise
  // deterministic call to call.
  for (; i < n; ++i) {
    const float zi = z[i];
    p[i] = 1.0f / (1.0f + std::exp(-zi));
    if (log_term != nullptr) {
      log_term[i] = std::log1p(std::exp(-std::abs(zi)));
    }
  }
}
#endif  // ANOLE_HAVE_AVX2_TARGET

/// --- training-step elementwise kernels ------------------------------
/// The scalar loops are the reference; each AVX2 lane runs the same IEEE
/// operations in the same order, with no FMA (contraction is turned off
/// where a product meets an add), so both levels agree bit for bit.

ANOLE_NO_AUTOVEC
void column_sums_scalar(const float* x, std::size_t rows, std::size_t cols,
                        float* sums) {
  std::fill(sums, sums + cols, 0.0f);
  const float* row = x;
  for (std::size_t r = 0; r < rows; ++r, row += cols) {
    for (std::size_t c = 0; c < cols; ++c) sums[c] += row[c];
  }
}

ANOLE_NO_AUTOVEC
void relu_forward_scalar(const float* x, std::size_t n, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

ANOLE_NO_AUTOVEC
void relu_backward_scalar(const float* x, const float* upstream,
                          std::size_t n, float* grad) {
  for (std::size_t i = 0; i < n; ++i) {
    const float g = upstream[i];
    grad[i] = x[i] <= 0.0f ? 0.0f : g;
  }
}

/// +0 for a subnormal (or zero) `x`, else `x`. Weight decay walks the
/// weights of dead units down into the subnormal range, where arithmetic
/// on x86 can take a microcode assist per op (DESIGN.md §13,
/// "Subnormals in training").
float flush_subnormal(float x) {
  return std::fabs(x) < std::numeric_limits<float>::min() ? 0.0f : x;
}

ANOLE_NO_AUTOVEC
void adam_update_scalar(const AdamStep& step, std::size_t n, float* value,
                        const float* grad, float* m, float* v) {
  const float lr = step.lr;
  const float b1 = step.beta1;
  const float b2 = step.beta2;
  const float eps = step.epsilon;
  const float wd = step.weight_decay;
  for (std::size_t j = 0; j < n; ++j) {
    const float g = grad[j] + wd * value[j];
    // The stored state never holds a subnormal; on normal values the
    // flushes are no-ops and the update is the textbook one bit for bit.
    m[j] = flush_subnormal(b1 * m[j] + (1.0f - b1) * g);
    v[j] = flush_subnormal(b2 * v[j] + (1.0f - b2) * g * g);
    const float m_hat = m[j] / step.bias1;
    const float v_hat = v[j] / step.bias2;
    value[j] = flush_subnormal(value[j] -
                               lr * m_hat / (std::sqrt(v_hat) + eps));
  }
}

#if ANOLE_HAVE_AVX2_TARGET
/// Sums of one panel of `kVecs` vectors (up to kVecs * 8 columns, the
/// last vector masked to `width`), held in registers across every row.
template <int kVecs>
ANOLE_TARGET_AVX2 void column_sums_panel(const float* x, std::size_t rows,
                                         std::size_t cols, std::size_t width,
                                         float* sums) {
  const __m256i last_mask = last_vector_mask(width);
  __m256 acc[kVecs];
  for (int v = 0; v < kVecs; ++v) acc[v] = _mm256_setzero_ps();
  const float* row = x;
  for (std::size_t r = 0; r < rows; ++r, row += cols) {
    for (int v = 0; v + 1 < kVecs; ++v) {
      acc[v] = _mm256_add_ps(acc[v], _mm256_loadu_ps(row + 8 * v));
    }
    acc[kVecs - 1] = _mm256_add_ps(
        acc[kVecs - 1], _mm256_maskload_ps(row + 8 * (kVecs - 1), last_mask));
  }
  for (int v = 0; v + 1 < kVecs; ++v) _mm256_storeu_ps(sums + 8 * v, acc[v]);
  _mm256_maskstore_ps(sums + 8 * (kVecs - 1), last_mask, acc[kVecs - 1]);
}

ANOLE_TARGET_AVX2
void column_sums_avx2(const float* x, std::size_t rows, std::size_t cols,
                      float* sums) {
  const UpperStateGuard clean_exit;
  // 32-column panels: a row's add chain per column stays in a register
  // instead of a store-to-load round trip per row.
  constexpr std::size_t kPanel = 32;
  for (std::size_t c0 = 0; c0 < cols; c0 += kPanel) {
    const std::size_t width = std::min(kPanel, cols - c0);
    switch ((width + 7) / 8) {
      case 1:
        column_sums_panel<1>(x + c0, rows, cols, width, sums + c0);
        break;
      case 2:
        column_sums_panel<2>(x + c0, rows, cols, width, sums + c0);
        break;
      case 3:
        column_sums_panel<3>(x + c0, rows, cols, width, sums + c0);
        break;
      default:
        column_sums_panel<4>(x + c0, rows, cols, width, sums + c0);
        break;
    }
  }
}

ANOLE_TARGET_AVX2
void relu_forward_avx2(const float* x, std::size_t n, float* y) {
  const UpperStateGuard clean_exit;
  // maxps returns its second operand when either is NaN or both are
  // zero, so max(x, +0) is the ternary's +0 for NaN and -0.
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  if (i < n) {
    const __m256i mask = last_vector_mask(n);
    _mm256_maskstore_ps(y + i, mask,
                        _mm256_max_ps(_mm256_maskload_ps(x + i, mask), zero));
  }
}

ANOLE_TARGET_AVX2
void relu_backward_avx2(const float* x, const float* upstream, std::size_t n,
                        float* grad) {
  const UpperStateGuard clean_exit;
  // !(x <= 0), true for NaN: the lanes that pass the upstream gradient.
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 pass =
        _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_NLE_UQ);
    _mm256_storeu_ps(grad + i,
                     _mm256_and_ps(pass, _mm256_loadu_ps(upstream + i)));
  }
  if (i < n) {
    const __m256i mask = last_vector_mask(n);
    const __m256 pass =
        _mm256_cmp_ps(_mm256_maskload_ps(x + i, mask), zero, _CMP_NLE_UQ);
    _mm256_maskstore_ps(
        grad + i, mask,
        _mm256_and_ps(pass, _mm256_maskload_ps(upstream + i, mask)));
  }
}

/// flush_subnormal on eight lanes: |x| < FLT_MIN is false for NaN.
ANOLE_TARGET_AVX2 inline __m256 flush_subnormal_lanes(__m256 x) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  const __m256 tiny = _mm256_cmp_ps(
      _mm256_and_ps(x, abs_mask),
      _mm256_set1_ps(std::numeric_limits<float>::min()), _CMP_LT_OQ);
  return _mm256_andnot_ps(tiny, x);
}

// Contraction off: b1 * m + (1 - b1) * g must round the product and the
// sum separately, as the scalar loop does.
ANOLE_TARGET_AVX2 __attribute__((optimize("fp-contract=off")))
void adam_update_avx2(const AdamStep& step, std::size_t n, float* value,
                      const float* grad, float* m, float* v) {
  const UpperStateGuard clean_exit;
  const __m256 lr = _mm256_set1_ps(step.lr);
  const __m256 b1 = _mm256_set1_ps(step.beta1);
  const __m256 b2 = _mm256_set1_ps(step.beta2);
  const __m256 one_minus_b1 = _mm256_set1_ps(1.0f - step.beta1);
  const __m256 one_minus_b2 = _mm256_set1_ps(1.0f - step.beta2);
  const __m256 eps = _mm256_set1_ps(step.epsilon);
  const __m256 wd = _mm256_set1_ps(step.weight_decay);
  const __m256 bias1 = _mm256_set1_ps(step.bias1);
  const __m256 bias2 = _mm256_set1_ps(step.bias2);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 w = _mm256_loadu_ps(value + j);
    const __m256 g =
        _mm256_add_ps(_mm256_loadu_ps(grad + j), _mm256_mul_ps(wd, w));
    const __m256 mj = flush_subnormal_lanes(_mm256_add_ps(
        _mm256_mul_ps(b1, _mm256_loadu_ps(m + j)),
        _mm256_mul_ps(one_minus_b1, g)));
    const __m256 vj = flush_subnormal_lanes(_mm256_add_ps(
        _mm256_mul_ps(b2, _mm256_loadu_ps(v + j)),
        _mm256_mul_ps(_mm256_mul_ps(one_minus_b2, g), g)));
    _mm256_storeu_ps(m + j, mj);
    _mm256_storeu_ps(v + j, vj);
    const __m256 m_hat = _mm256_div_ps(mj, bias1);
    const __m256 v_hat = _mm256_div_ps(vj, bias2);
    const __m256 update =
        _mm256_div_ps(_mm256_mul_ps(lr, m_hat),
                      _mm256_add_ps(_mm256_sqrt_ps(v_hat), eps));
    _mm256_storeu_ps(value + j, flush_subnormal_lanes(_mm256_sub_ps(w, update)));
  }
  // The last n % 8 parameters run the scalar loop: the same operations,
  // so the same bits.
  adam_update_scalar(step, n - j, value + j, grad + j, m + j, v + j);
}
#endif  // ANOLE_HAVE_AVX2_TARGET

/// --- k-means distance kernels ---------------------------------------
/// Lanes map to centroids; each lane accumulates in ascending dimension
/// order with separate multiply and add, so every level produces bitwise
/// identical distances (and identical assignments downstream).

ANOLE_NO_AUTOVEC
void kmeans_distances_scalar(const float* point, std::size_t dims,
                             const double* ct, std::size_t k_stride,
                             double* dist) {
  for (std::size_t j = 0; j < k_stride; ++j) dist[j] = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double pv = static_cast<double>(point[d]);
    const double* crow = ct + d * k_stride;
    for (std::size_t j = 0; j < k_stride; ++j) {
      const double diff = pv - crow[j];
      dist[j] += diff * diff;
    }
  }
}

#if ANOLE_HAVE_AVX2_TARGET
// GCC's intrinsics are plain vector arithmetic, so at its default
// -ffp-contract=fast the add of a product below became a vfmadd231pd,
// one rounding per step instead of the scalar loop's two. Contraction is
// turned off for this function only: sigmoid_terms_avx2 keeps its fused
// polynomial.
ANOLE_TARGET_AVX2 __attribute__((optimize("fp-contract=off")))
void kmeans_distances_avx2(const float* point, std::size_t dims,
                           const double* ct, std::size_t k_stride,
                           double* dist) {
  const UpperStateGuard clean_exit;
  for (std::size_t j = 0; j + 4 <= k_stride; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t d = 0; d < dims; ++d) {
      const __m256d pv = _mm256_set1_pd(static_cast<double>(point[d]));
      const __m256d diff =
          _mm256_sub_pd(pv, _mm256_loadu_pd(ct + d * k_stride + j));
      // mul + add (no FMA): each lane rounds exactly like the scalar
      // loop, keeping distances bitwise identical across levels.
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    }
    _mm256_storeu_pd(dist + j, acc);
  }
}
#endif  // ANOLE_HAVE_AVX2_TARGET

}  // namespace

Level detected_level() {
  static const Level level = probe_cpu();
  return level;
}

Level active_level() {
  const int override_level = g_override.load(std::memory_order_relaxed);
  if (override_level != kNoOverride) {
    return static_cast<Level>(override_level);
  }
  return env_level();
}

void set_level(Level level) {
  const Level clamped = clamp_to_detected(level);
  g_override.store(static_cast<int>(clamped), std::memory_order_relaxed);
  publish_level(clamped);
}

void reset_level() {
  g_override.store(kNoOverride, std::memory_order_relaxed);
  publish_level(env_level());
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAVX2:
      return "avx2";
  }
  return "unknown";
}

void gemm_rows(Level level, std::size_t ilo, std::size_t ihi, std::size_t k,
               std::size_t n, const float* pa, std::size_t a_row_stride,
               std::size_t a_col_stride, const float* pb, const float* pbias,
               float* pc) {
  ANOLE_DCHECK(ilo <= ihi, "gemm_rows: ilo ", ilo, " > ihi ", ihi);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      gemm_rows_avx2(ilo, ihi, k, n, pa, a_row_stride, a_col_stride, pb,
                     pbias, pc);
      return;
#endif
    default:
      gemm_rows_scalar(ilo, ihi, k, n, pa, a_row_stride, a_col_stride, pb,
                       pbias, pc);
      return;
  }
}

std::int32_t quantize_code(float value, float inv_scale) {
  const float scaled = value * inv_scale;
  // NaN quantizes to 0 (casting it to an integer would be undefined).
  if (std::isnan(scaled)) return 0;
  return static_cast<std::int32_t>(
      std::clamp(std::nearbyint(scaled), -127.0f, 127.0f));
}

float row_scale_for(float abs_max) {
  float scale = abs_max > 0.0f ? abs_max / 127.0f : 1.0f;
  if (!(scale > 0.0f) || !std::isfinite(scale)) scale = 1.0f;
  return scale;
}

float quantize_row_int16(Level level, std::span<const float> src,
                         std::int16_t* dst, std::size_t padded) {
  ANOLE_DCHECK(padded >= src.size() && padded % kQgemmDepthMultiple == 0,
               "quantize_row_int16: padded depth ", padded,
               " must cover the row and be a multiple of ",
               kQgemmDepthMultiple);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      return quantize_row_int16_avx2(src, dst, padded);
#endif
    default:
      return quantize_row_int16_scalar(src, dst, padded);
  }
}

void qgemm_rows(Level level, std::size_t ilo, std::size_t ihi, std::size_t n,
                std::size_t kp, const std::int16_t* xq, const float* xscale,
                const std::int16_t* pw, const float* pscale,
                const float* pbias, float* py) {
  ANOLE_DCHECK(kp % kQgemmDepthMultiple == 0,
               "qgemm_rows: padded depth not a multiple of ",
               kQgemmDepthMultiple);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      qgemm_rows_avx2(ilo, ihi, n, kp, xq, xscale, pw, pscale, pbias, py);
      return;
#endif
    default:
      qgemm_rows_scalar(ilo, ihi, n, kp, xq, xscale, pw, pscale, pbias, py);
      return;
  }
}

void sigmoid_terms(Level level, const float* z, std::size_t n, float* p,
                   float* log_term) {
  ANOLE_DCHECK(n == 0 || (z != nullptr && p != nullptr),
               "sigmoid_terms: null input/output for n ", n);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      sigmoid_terms_avx2(z, n, p, log_term);
      return;
#endif
    default:
      sigmoid_terms_scalar(z, n, p, log_term);
      return;
  }
}

void column_sums(Level level, const float* x, std::size_t rows,
                 std::size_t cols, float* sums) {
  ANOLE_DCHECK(cols == 0 || (sums != nullptr && (rows == 0 || x != nullptr)),
               "column_sums: null input/output for ", rows, "x", cols);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      column_sums_avx2(x, rows, cols, sums);
      return;
#endif
    default:
      column_sums_scalar(x, rows, cols, sums);
      return;
  }
}

void relu_forward(Level level, const float* x, std::size_t n, float* y) {
  ANOLE_DCHECK(n == 0 || (x != nullptr && y != nullptr),
               "relu_forward: null input/output for n ", n);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      relu_forward_avx2(x, n, y);
      return;
#endif
    default:
      relu_forward_scalar(x, n, y);
      return;
  }
}

void relu_backward(Level level, const float* x, const float* upstream,
                   std::size_t n, float* grad) {
  ANOLE_DCHECK(n == 0 || (x != nullptr && upstream != nullptr &&
                          grad != nullptr),
               "relu_backward: null input/output for n ", n);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      relu_backward_avx2(x, upstream, n, grad);
      return;
#endif
    default:
      relu_backward_scalar(x, upstream, n, grad);
      return;
  }
}

void adam_update(Level level, const AdamStep& step, std::size_t n,
                 float* value, const float* grad, float* m, float* v) {
  ANOLE_DCHECK(n == 0 || (value != nullptr && grad != nullptr &&
                          m != nullptr && v != nullptr),
               "adam_update: null parameter or state for n ", n);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      adam_update_avx2(step, n, value, grad, m, v);
      return;
#endif
    default:
      adam_update_scalar(step, n, value, grad, m, v);
      return;
  }
}

void kmeans_distances(Level level, const float* point, std::size_t dims,
                      const double* centroids_t, std::size_t k_stride,
                      double* dist) {
  ANOLE_DCHECK(k_stride % kKmeansLaneMultiple == 0,
               "kmeans_distances: k_stride not a multiple of ",
               kKmeansLaneMultiple);
  switch (level) {
#if ANOLE_HAVE_AVX2_TARGET
    case Level::kAVX2:
      kmeans_distances_avx2(point, dims, centroids_t, k_stride, dist);
      return;
#endif
    default:
      kmeans_distances_scalar(point, dims, centroids_t, k_stride, dist);
      return;
  }
}

}  // namespace anole::simd
