// Golden values for the kernels whose numeric result depends on how the
// work is split: the blocked tensor reductions, the GEMMs, k-means and,
// end to end, the offline profiler's artifact. Each value was recorded
// from the chunked thread-pool implementation these kernels replaced, at
// 1 and 4 threads, so a rewrite that changes a combine order, a block
// boundary or a row partition fails here even when it is self-consistent
// across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/kmeans.hpp"
#include "core/artifact.hpp"
#include "core/profiler.hpp"
#include "micro_world.hpp"
#include "simd_levels.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/tensor.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "world/world.hpp"

namespace anole {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 4};

/// Restores the default pool size when a test returns.
struct ThreadCountGuard {
  ~ThreadCountGuard() { par::set_thread_count(0); }
};

std::uint32_t bits_of(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

Tensor uniform_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Tensor t = Tensor::matrix(rows, cols);
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

std::uint64_t tensor_digest(const Tensor& t) {
  Fnv1a digest;
  for (float value : t.data()) digest.mix(bits_of(value));
  return digest.value();
}

/// Byte-wise FNV-1a-64, the hash quoted for saved artifacts.
std::uint64_t fnv1a_bytes(const std::string& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// 10 001 elements: two full 4096-element reduce blocks and a partial one.
TEST(KernelGolden, TensorReductionsKeepBlockOrder) {
  ThreadCountGuard threads;
  Rng rng(2024);
  Tensor t(Shape{10'001});
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.5, 3.0));
  for (simd::Level level : available_levels()) {
    SimdLevelGuard guard(level);
    for (std::size_t count : kThreadCounts) {
      par::set_thread_count(count);
      SCOPED_TRACE(std::string(simd::level_name(level)) + " threads " +
                   std::to_string(count));
      EXPECT_EQ(bits_of(t.sum()), 0x45A8CCEFu);
      EXPECT_EQ(bits_of(t.abs_max()), 0x413BB2FDu);
      EXPECT_EQ(bits_of(t.l2_norm()), 0x43976469u);
    }
  }
}

/// A 300-row batch through a 42 -> 16 layer, the detector's first-layer
/// shape.
TEST(KernelGolden, GemmAndQgemmRows) {
  ThreadCountGuard threads;
  Rng rng(77);
  const Tensor a = uniform_matrix(300, 42, rng);
  const Tensor b = uniform_matrix(42, 16, rng);
  QuantizedMatrix q = quantize_weights(b);
  q.prepare();
  std::vector<float> bias(16);
  for (float& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (simd::Level level : available_levels()) {
    SimdLevelGuard guard(level);
    const bool scalar = level == simd::Level::kScalar;
    for (std::size_t count : kThreadCounts) {
      par::set_thread_count(count);
      SCOPED_TRACE(std::string(simd::level_name(level)) + " threads " +
                   std::to_string(count));
      // fp32 GEMM contracts multiply-adds at AVX2; int8 is exact.
      EXPECT_EQ(tensor_digest(matmul(a, b)),
                scalar ? 0x2EBF56C0EC0C706BULL : 0x763F82385AF16DD2ULL);
      EXPECT_EQ(tensor_digest(qgemm(a, q, bias)), 0xCC30F8A30073FC13ULL);
    }
  }
}

/// 400 points in six blobs: seeding, assignment and the 64-point inertia
/// blocks all run over more than one block.
TEST(KernelGolden, KMeansAssignmentsAndInertia) {
  ThreadCountGuard threads;
  Rng data_rng(5150);
  constexpr std::size_t kPoints = 400;
  constexpr std::size_t kDims = 12;
  const Tensor centers = uniform_matrix(6, kDims, data_rng);
  Tensor points = Tensor::matrix(kPoints, kDims);
  for (std::size_t i = 0; i < kPoints; ++i) {
    const auto center = centers.row(i % 6);
    auto row = points.row(i);
    for (std::size_t d = 0; d < kDims; ++d) {
      row[d] = center[d] * 4.0f + static_cast<float>(data_rng.normal());
    }
  }
  cluster::KMeansConfig config;
  config.clusters = 6;
  for (simd::Level level : available_levels()) {
    SimdLevelGuard guard(level);
    for (std::size_t count : kThreadCounts) {
      par::set_thread_count(count);
      SCOPED_TRACE(std::string(simd::level_name(level)) + " threads " +
                   std::to_string(count));
      Rng rng(31);
      const cluster::KMeansResult result =
          cluster::kmeans(points, config, rng);
      Fnv1a digest;
      for (std::size_t a : result.assignments) digest.mix(a);
      for (float v : result.centroids.data()) digest.mix(bits_of(v));
      EXPECT_EQ(digest.value(), 0x72F42B5DA1A8F918ULL);
      EXPECT_EQ(bits_of(result.inertia), 0x40B2BE1ED380114BULL);
      EXPECT_EQ(result.iterations, 6u);
      EXPECT_EQ(rng(), 0xA71F78B6C9FB7268ULL);
    }
  }
}

/// The whole offline phase on the micro world, saved as an artifact.
void expect_micro_artifact(simd::Level level, std::size_t bytes,
                           std::uint64_t hash) {
  ThreadCountGuard threads;
  SimdLevelGuard guard(level);
  const world::World world = world::make_benchmark_world(micro_world_config());
  for (std::size_t count : kThreadCounts) {
    par::set_thread_count(count);
    SCOPED_TRACE("threads " + std::to_string(count));
    Rng rng(17);
    core::AnoleSystem system =
        core::OfflineProfiler(micro_profiler_config()).run(world, rng);
    std::ostringstream out;
    core::save_system(system, out);
    EXPECT_EQ(out.str().size(), bytes);
    EXPECT_EQ(fnv1a_bytes(out.str()), hash);
  }
}

TEST(KernelGolden, MicroWorldArtifactAtScalar) {
  expect_micro_artifact(simd::Level::kScalar, 45'143, 0xA1DC17B15B14D2EBULL);
}

TEST(KernelGolden, MicroWorldArtifactAtAvx2) {
  if (simd::detected_level() < simd::Level::kAVX2) {
    GTEST_SKIP() << "host lacks AVX2";
  }
  expect_micro_artifact(simd::Level::kAVX2, 45'143, 0x2C2A04B14D4C1C0AULL);
}

}  // namespace
}  // namespace anole
