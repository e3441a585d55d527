// Golden values for the kernels whose numeric result depends on how the
// work is split: the blocked tensor reductions, the GEMMs, k-means and,
// end to end, the offline profiler's artifact. Each value was recorded
// from the chunked thread-pool implementation these kernels replaced, at
// 1 and 4 threads, so a rewrite that changes a combine order, a block
// boundary or a row partition fails here even when it is self-consistent
// across thread counts. The frame-descriptor and detector-input goldens
// were recorded before the featurizer and the detector shared
// world::write_channel_moments, so a change to its accumulation order
// fails here too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/kmeans.hpp"
#include "core/artifact.hpp"
#include "core/profiler.hpp"
#include "detect/grid_detector.hpp"
#include "micro_world.hpp"
#include "simd_levels.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/tensor.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "world/featurizer.hpp"
#include "world/scenario.hpp"
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

/// A degrade-armed micro-world stream: its first frame is undamaged (the
/// ramp starts at 0), its last is the most degraded.
struct ScenarioFrames {
  world::ScenarioStream stream;
  const world::Frame& clean() const { return stream.clip.frames.front(); }
  const world::Frame& degraded() const { return stream.clip.frames.back(); }
};

ScenarioFrames scenario_frames() {
  const world::World world = world::make_benchmark_world(micro_world_config());
  world::ScenarioConfig config;
  config.seed = 23;
  config.arm(world::ScenarioPack::kDegrade, 1.0, 2.0);
  return {world::compose_scenario(world, config, 60)};
}

std::vector<std::uint32_t> descriptor_bits(const world::Frame& frame) {
  const Tensor descriptor = world::FrameFeaturizer().featurize(frame);
  std::vector<std::uint32_t> bits;
  for (float v : descriptor.data()) bits.push_back(bits_of(v));
  return bits;
}

/// The 32-float frame descriptor: 12 channel means, 12 stddevs, then the
/// 8-bin luminance histogram.
TEST(KernelGolden, FrameDescriptorBits) {
  const ScenarioFrames frames = scenario_frames();
  EXPECT_EQ(descriptor_bits(frames.clean()),
            (std::vector<std::uint32_t>{
                0x3DB586B4u, 0x3DA75951u, 0x3DB9BF47u, 0x3D97CE63u,
                0xBD678DF0u, 0x3E796C03u, 0x3EBC03D6u, 0x3DBADCE9u,
                0xBBBAC47Fu, 0xBBB0D9D3u, 0x3B29DD7Bu, 0xBBFA3481u,
                0x3D830E11u, 0x3D84FC55u, 0x3D81E268u, 0x3D70BC1Au,
                0x3D66B736u, 0x3D713677u, 0x3D565E2Au, 0x3D672670u,
                0x3D81C68Cu, 0x3D521C03u, 0x3D571A73u, 0x3D691BD0u,
                0x00000000u, 0x3F5C71C7u, 0x3E0E38E4u, 0x00000000u,
                0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u}));
  EXPECT_EQ(descriptor_bits(frames.degraded()),
            (std::vector<std::uint32_t>{
                0x3DF5EAF1u, 0x3D0B92ADu, 0x3DD6347Au, 0x3DAA88F9u,
                0xBD396696u, 0x3E61BEC2u, 0x3EBA6EA4u, 0x3DBD81FCu,
                0x3C93E749u, 0xBD12C98Du, 0x3D1B42A5u, 0x3C21B6C8u,
                0x3E2CA284u, 0x3E462C40u, 0x3E3F445Cu, 0x3E3964CAu,
                0x3E38703Cu, 0x3E41BF14u, 0x3E4FA0D3u, 0x3E2F2E1Cu,
                0x3E3D0D2Bu, 0x3E3EEFA5u, 0x3E319FCAu, 0x3E4D1726u,
                0x3D8E38E4u, 0x3F0AAAABu, 0x3EC71C72u, 0x00000000u,
                0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u}));
}

/// The detector's [cells, input_features] input matrix.
TEST(KernelGolden, DetectorInputDigest) {
  const ScenarioFrames frames = scenario_frames();
  EXPECT_EQ(tensor_digest(detect::GridDetector::build_inputs(frames.clean())),
            0xE93E52E151BE69B5ULL);
  EXPECT_EQ(
      tensor_digest(detect::GridDetector::build_inputs(frames.degraded())),
      0xA62BA575A5AFC890ULL);
}

/// The descriptor's channel moments and every cell's context columns are
/// one computation, so they agree bit for bit.
TEST(KernelGolden, DescriptorMomentsEqualDetectorContext) {
  const ScenarioFrames frames = scenario_frames();
  constexpr std::size_t kMoments = 2 * world::kCellChannels;
  for (const world::Frame* frame : {&frames.clean(), &frames.degraded()}) {
    const std::vector<std::uint32_t> descriptor = descriptor_bits(*frame);
    const Tensor inputs = detect::GridDetector::build_inputs(*frame);
    for (std::size_t i = 0; i < inputs.rows(); ++i) {
      const auto row = inputs.row(i);
      for (std::size_t c = 0; c < kMoments; ++c) {
        ASSERT_EQ(bits_of(row[world::kCellChannels + c]), descriptor[c])
            << "cell " << i << " moment " << c;
      }
    }
  }
}

/// Whole-frame digests (Clip::content_hash: cell bits, photometric stats,
/// objects, attributes, ids) recorded when every frame was still rendered
/// in stream order on the calling thread. Frames now paint on the pool,
/// each from Rng states the schedule recorded, so any change to a draw's
/// order or to what a frame paints from fails here.
std::uint64_t world_frames_digest(const world::World& world) {
  Fnv1a digest;
  for (const world::Clip& clip : world.clips) digest.mix(clip.content_hash());
  return digest.value();
}

TEST(KernelGolden, MicroWorldFrames) {
  ThreadCountGuard threads;
  for (std::size_t count : kThreadCounts) {
    par::set_thread_count(count);
    SCOPED_TRACE("threads " + std::to_string(count));
    const world::World world =
        world::make_benchmark_world(micro_world_config());
    EXPECT_EQ(world.total_frames(), 520u);
    EXPECT_EQ(world_frames_digest(world), 0x4FA05CEA7AE7B345ULL);
    Rng rng(5);
    const world::Clip fast =
        world::synthesize_fast_changing_clip(world, 4, 25, rng);
    EXPECT_EQ(fast.content_hash(), 0xD3A13C34D411728CULL);
    EXPECT_EQ(rng(), 0x76CA9E56E39BAABBULL);
  }
}

/// 700 frames with every pack armed span six paint tasks; a clean stream
/// of 650 frames covers the undegraded path.
TEST(KernelGolden, ScenarioStreamFrames) {
  ThreadCountGuard threads;
  const world::World world = world::make_benchmark_world(micro_world_config());
  const auto all_packs = world::ScenarioConfig::parse(
      "seed=31,drift=1,degrade=1x3,bursts=0.35,diurnal=1");
  const auto clean = world::ScenarioConfig::parse("seed=40");
  for (std::size_t count : kThreadCounts) {
    par::set_thread_count(count);
    SCOPED_TRACE("threads " + std::to_string(count));
    const world::ScenarioStream hostile =
        world::compose_scenario(world, all_packs, 700);
    EXPECT_EQ(hostile.clip.content_hash(), 0xFF3E45D7E5CF9F9EULL);
    EXPECT_EQ(hostile.trace_hash(), 0xF620769909CBBEB2ULL);
    EXPECT_EQ(world::compose_scenario(world, clean, 650).clip.content_hash(),
              0xFF63803024A38B09ULL);
  }
}

/// 8250 frames: the schedule hands the pool a first block of 8220 frames
/// (274 whole segments, the first segment end past 8192) and then the
/// last 30.
TEST(KernelGolden, ScenarioStreamAcrossComposeBlocks) {
  ThreadCountGuard threads;
  par::set_thread_count(4);
  const world::World world = world::make_benchmark_world(micro_world_config());
  const world::ScenarioStream stream = world::compose_scenario(
      world,
      world::ScenarioConfig::parse(
          "seed=31,drift=1,degrade=1x3,bursts=0.35,diurnal=1"),
      8250);
  EXPECT_EQ(stream.clip.content_hash(), 0x13053F0327FE9CE8ULL);
  EXPECT_EQ(stream.trace_hash(), 0x895C73C788FD334FULL);
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

/// The standard world and profiler configuration every repository bench
/// and the perfbench workloads train (bench/common.hpp): ~2700 frames,
/// n = 19 compressed models, ASS budget 1200, profiled from
/// Rng(splitmix64(1)). This is the artifact quoted as the equivalence
/// witness for every change to offline profiling, pinned here so nobody
/// recomputes it by hand. Re-recorded once when Adam began storing +0 for
/// subnormals: before that, weight decay left 93 subnormal detector
/// weights in 6 of the 19 models. The flush changed 310 detector
/// parameters in those 6 models, every one of magnitude <= 2.8e-32 before
/// and after; validation F1 and the artifact's size did not change.
TEST(KernelGolden, StandardWorldArtifactAtAvx2) {
  if (simd::active_level() != simd::Level::kAVX2) {
    GTEST_SKIP() << "active SIMD level is not avx2";
  }
  world::WorldConfig world_config;
  world_config.frames_per_clip = 90;
  world_config.clip_scale = 0.4;
  world_config.seed = 1234;
  core::ProfilerConfig profiler_config;
  profiler_config.repository.target_models = 19;
  profiler_config.sampling.budget = 1200;
  const world::World world = world::make_benchmark_world(world_config);
  // splitmix64 of seed 1, as perfbench derives its profiler seed.
  Rng rng(0x910A2DEC89025CC1ULL);
  core::AnoleSystem system =
      core::OfflineProfiler(profiler_config).run(world, rng);
  std::size_t subnormal_weights = 0;
  for (std::size_t m = 0; m < system.repository.size(); ++m) {
    for (nn::Parameter* param :
         system.repository.model(m).detector->network().parameters()) {
      for (float value : param->value.data()) {
        if (std::fpclassify(value) == FP_SUBNORMAL) ++subnormal_weights;
      }
    }
  }
  EXPECT_EQ(subnormal_weights, 0u);
  std::ostringstream out;
  core::save_system(system, out);
  EXPECT_EQ(out.str().size(), 93'941u);
  EXPECT_EQ(fnv1a_bytes(out.str()), 0x19FED5CCE369E0DAULL);
}

}  // namespace
}  // namespace anole
