// Tests of the deterministic parallel execution layer: parallel_for
// itself, and the determinism contract end to end — matmul kernels,
// k-means, the full offline profiler, and the batch engine path must
// produce bitwise identical results at 1 and 4 threads, Algorithm 1's
// candidate queue must accept what the ordered k-sweep accepts at 1 to 4
// threads, and ASS must label what its per-round loop labelled at 1, 2
// and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/kmeans.hpp"
#include "core/decision_model.hpp"
#include "core/profiler.hpp"
#include "core/repository.hpp"
#include "micro_world.hpp"
#include "simd_levels.hpp"
#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "world/featurizer.hpp"

namespace anole {
namespace {

/// Restores the default pool size when a test returns.
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
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Reference ikj matmul with the same per-element accumulation order (kk
/// ascending) and the same zero-skip as the blocked kernel.
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

Tensor naive_matmul_transpose_a(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::matrix(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t kk = 0; kk < a.rows(); ++kk) {
      const float aik = a.at(kk, i);
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aik * b.at(kk, j);
      }
    }
  }
  return c;
}

/// Same accumulate-and-zero-skip form as the other references: since the
/// unified kernel, matmul_transpose_b materializes transpose(b) and runs
/// the shared blocked loop, so its float contract is identical to
/// matmul's (kk ascending, aik == 0 terms skipped), not the dot form.
Tensor naive_matmul_transpose_b(const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::matrix(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t kk = 0; kk < a.cols(); ++kk) {
      const float aik = a.at(i, kk);
      if (aik == 0.0f) continue;
      for (std::size_t j = 0; j < b.rows(); ++j) {
        c.at(i, j) += aik * b.at(j, kk);
      }
    }
  }
  return c;
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  constexpr std::size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  par::parallel_for(0, kN, 7, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, EmptyAndReversedRangesRunNothing) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  std::atomic<int> calls{0};
  par::parallel_for(5, 5, 1, [&](std::size_t) { ++calls; });
  par::parallel_for(9, 3, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, NestedCallsRunInlineAndStillCover) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<int> hits(kOuter * kInner, 0);
  std::atomic<int> nested_parallel{0};
  par::parallel_for(0, kOuter, 1, [&](std::size_t o) {
    if (par::in_parallel_region()) {
      // The nested call below must take the inline path.
      par::parallel_for(0, kInner, 4, [&](std::size_t i) {
        if (par::in_parallel_region()) ++hits[o * kInner + i];
      });
    } else {
      // The caller thread also participates; it is marked as in-region
      // for the duration of its chunks too.
      ++nested_parallel;
    }
  });
  // Every outer index ran with in_parallel_region() true.
  EXPECT_EQ(nested_parallel.load(), 0);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelFor, PropagatesExceptionsAndStaysUsable) {
  ThreadCountGuard guard;
  par::set_thread_count(4);
  EXPECT_THROW(par::parallel_for(0, 100, 1,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a failed job.
  std::vector<int> hits(50, 0);
  par::parallel_for(0, 50, 3, [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 50);
}

/// The default pool size (ANOLE_THREADS, else hardware concurrency) is
/// at least one thread. No guard: the size is only read, and an invalid
/// ANOLE_THREADS must surface as this test's exception rather than from a
/// destructor.
TEST(ThreadCount, DefaultIsAtLeastOne) {
  EXPECT_GE(par::thread_count(), 1u);
}

TEST(ThreadCount, SetAndRestore) {
  ThreadCountGuard guard;
  par::set_thread_count(3);
  EXPECT_EQ(par::thread_count(), 3u);
  par::set_thread_count(1);
  EXPECT_EQ(par::thread_count(), 1u);
  par::set_thread_count(0);
  EXPECT_GE(par::thread_count(), 1u);
}

TEST(TensorUninitialized, HasShapeAndAcceptsWrites) {
  Tensor t = Tensor::uninitialized(Shape{17, 5});
  EXPECT_EQ(t.rows(), 17u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_EQ(t.size(), 85u);
  t.fill(2.5f);
  EXPECT_EQ(t.at(16, 4), 2.5f);
}

/// The fp32 dispatch contract (tensor/simd.hpp): scalar matches the
/// mul+add reference bitwise; AVX2 contracts each multiply-add into
/// an FMA, so it gets an error envelope instead. Every level must be
/// bitwise identical to itself across thread counts.
TEST(TensorParallel, MatmulMatchesNaiveBitwiseAtAnyThreadCount) {
  ThreadCountGuard guard;
  Rng rng(7);
  // Odd sizes so the j/k blocks and the row groups all have ragged tails.
  const Tensor a = random_matrix(37, 111, rng);
  const Tensor b = random_matrix(111, 70, rng);
  const Tensor reference = naive_matmul(a, b);

  for (const simd::Level level : available_levels()) {
    SimdLevelGuard simd_guard(level);
    par::set_thread_count(1);
    const Tensor serial = matmul(a, b);
    par::set_thread_count(4);
    const Tensor parallel = matmul(a, b);

    // Thread-count invariance holds at every level.
    EXPECT_TRUE(bitwise_equal(serial, parallel))
        << simd::level_name(level);
    if (level != simd::Level::kAVX2) {
      EXPECT_TRUE(bitwise_equal(serial, reference))
          << simd::level_name(level);
      continue;
    }
    // AVX2 ULP policy: fusing a*b+c drops one rounding per partial sum,
    // so each output may drift from the reference by at most one extra
    // rounding per accumulation step: |Δ| ≤ k·ε·Σ|a_ik·b_kj|.
    constexpr double kEps = 1.1920928955078125e-7;  // 2^-23
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        double abs_sum = 0.0;
        for (std::size_t kk = 0; kk < a.cols(); ++kk) {
          abs_sum += std::abs(static_cast<double>(a.at(i, kk)) *
                              static_cast<double>(b.at(kk, j)));
        }
        const double tolerance =
            static_cast<double>(a.cols()) * kEps * abs_sum + 1e-30;
        EXPECT_NEAR(serial.at(i, j), reference.at(i, j), tolerance)
            << "i=" << i << " j=" << j;
      }
    }
  }
}

TEST(TensorParallel, MatmulTransposeAMatchesNaiveBitwise) {
  ThreadCountGuard guard;
  Rng rng(8);
  const Tensor a = random_matrix(90, 33, rng);
  const Tensor b = random_matrix(90, 41, rng);
  const Tensor reference = naive_matmul_transpose_a(a, b);

  for (const simd::Level level : available_levels()) {
    SimdLevelGuard simd_guard(level);
    par::set_thread_count(1);
    const Tensor serial = matmul_transpose_a(a, b);
    par::set_thread_count(4);
    const Tensor parallel = matmul_transpose_a(a, b);

    EXPECT_TRUE(bitwise_equal(serial, parallel))
        << simd::level_name(level);
    if (level != simd::Level::kAVX2) {
      EXPECT_TRUE(bitwise_equal(serial, reference))
          << simd::level_name(level);
    }
  }
}

TEST(TensorParallel, MatmulTransposeBMatchesNaiveBitwise) {
  ThreadCountGuard guard;
  Rng rng(9);
  const Tensor a = random_matrix(45, 65, rng);
  const Tensor b = random_matrix(52, 65, rng);
  const Tensor reference = naive_matmul_transpose_b(a, b);

  for (const simd::Level level : available_levels()) {
    SimdLevelGuard simd_guard(level);
    par::set_thread_count(1);
    const Tensor serial = matmul_transpose_b(a, b);
    par::set_thread_count(4);
    const Tensor parallel = matmul_transpose_b(a, b);

    EXPECT_TRUE(bitwise_equal(serial, parallel))
        << simd::level_name(level);
    if (level != simd::Level::kAVX2) {
      EXPECT_TRUE(bitwise_equal(serial, reference))
          << simd::level_name(level);
    }
  }
}

TEST(TensorParallel, ReductionsAreThreadCountInvariant) {
  ThreadCountGuard guard;
  Rng rng(10);
  const Tensor t = random_matrix(300, 200, rng);

  par::set_thread_count(1);
  const float sum1 = t.sum();
  const float norm1 = t.l2_norm();
  const float max1 = t.abs_max();
  par::set_thread_count(4);
  const float sum4 = t.sum();
  const float norm4 = t.l2_norm();
  const float max4 = t.abs_max();

  EXPECT_EQ(std::memcmp(&sum1, &sum4, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&norm1, &norm4, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&max1, &max4, sizeof(float)), 0);
}

TEST(KMeansParallel, IdenticalAtOneAndFourThreads) {
  ThreadCountGuard guard;
  Rng data_rng(11);
  const Tensor points = random_matrix(200, 16, data_rng);
  cluster::KMeansConfig config;
  config.clusters = 7;

  par::set_thread_count(1);
  Rng rng_a(123);
  const auto serial = cluster::kmeans(points, config, rng_a);
  par::set_thread_count(4);
  Rng rng_b(123);
  const auto parallel = cluster::kmeans(points, config, rng_b);

  EXPECT_EQ(serial.assignments, parallel.assignments);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  EXPECT_TRUE(bitwise_equal(serial.centroids, parallel.centroids));
  EXPECT_EQ(std::memcmp(&serial.inertia, &parallel.inertia, sizeof(double)),
            0);
}

TEST(KMeansParallel, IdenticalAtEveryDispatchLevel) {
  // The distance kernel accumulates each centroid lane in ascending
  // dimension order with separate mul+add at every level, so the whole
  // clustering is bitwise level-invariant (tensor/simd.hpp).
  ThreadCountGuard guard;
  par::set_thread_count(4);
  Rng data_rng(21);
  const Tensor points = random_matrix(300, 24, data_rng);
  cluster::KMeansConfig config;
  config.clusters = 6;

  cluster::KMeansResult reference;
  bool have_reference = false;
  for (const simd::Level level : available_levels()) {
    SimdLevelGuard simd_guard(level);
    Rng rng(321);
    const auto result = cluster::kmeans(points, config, rng);
    if (!have_reference) {
      reference = result;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(result.assignments, reference.assignments)
        << simd::level_name(level);
    EXPECT_EQ(result.iterations, reference.iterations)
        << simd::level_name(level);
    EXPECT_TRUE(bitwise_equal(result.centroids, reference.centroids))
        << simd::level_name(level);
    EXPECT_EQ(std::memcmp(&result.inertia, &reference.inertia,
                          sizeof(double)),
              0)
        << simd::level_name(level);
  }
}

// --- SIMD dispatch plumbing ----------------------------------------------

TEST(SimdDispatch, ActiveLevelNeverExceedsDetected) {
  EXPECT_LE(simd::active_level(), simd::detected_level());
  SimdLevelGuard guard(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
}

TEST(SimdDispatch, SetLevelClampsToDetected) {
  SimdLevelGuard guard(simd::Level::kAVX2);
  EXPECT_LE(simd::active_level(), simd::detected_level());
  EXPECT_EQ(simd::active_level(),
            std::min(simd::Level::kAVX2, simd::detected_level()));
}

TEST(SimdDispatch, LevelNamesAreStable) {
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAVX2), "avx2");
}

TEST(SimdDispatch, SigmoidTermsMatchLibmWithinEnvelope) {
  // Inputs cover both signs, the origin, sigmoid saturation, and the
  // exp clamp region, plus a pseudo-random spread.
  std::vector<float> z = {0.0f,  -0.0f, 1e-6f, -1e-6f, 0.5f,  -0.5f,
                          4.0f,  -4.0f, 17.0f, -17.0f, 30.0f, -30.0f,
                          88.0f, -88.0f, 95.0f, -95.0f};
  Rng rng(77);
  for (int i = 0; i < 240; ++i) {
    z.push_back(static_cast<float>(rng.normal(0.0, 6.0)));
  }
  const std::size_t n = z.size();
  std::vector<float> p_ref(n);
  std::vector<float> l_ref(n);
  simd::sigmoid_terms(simd::Level::kScalar, z.data(), n, p_ref.data(),
                      l_ref.data());
  for (std::size_t i = 0; i < n; ++i) {
    // The scalar level is the exact libm loop.
    const double zd = static_cast<double>(z[i]);
    EXPECT_NEAR(p_ref[i], 1.0 / (1.0 + std::exp(-zd)), 1e-6) << z[i];
    EXPECT_NEAR(l_ref[i], std::log1p(std::exp(-std::abs(zd))), 1e-6) << z[i];
  }
  for (const simd::Level level : available_levels()) {
    std::vector<float> p(n);
    std::vector<float> l(n);
    simd::sigmoid_terms(level, z.data(), n, p.data(), l.data());
    std::vector<float> p_again(n);
    simd::sigmoid_terms(level, z.data(), n, p_again.data(), nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      if (level == simd::Level::kAVX2) {
        // Documented polynomial envelope: a few ULP relative, plus an
        // absolute floor for the clamped saturation tail.
        EXPECT_NEAR(p[i], p_ref[i], 1e-6f * std::abs(p_ref[i]) + 2e-7f)
            << "z=" << z[i];
        EXPECT_NEAR(l[i], l_ref[i], 1e-5f * std::abs(l_ref[i]) + 1.2e-38f)
            << "z=" << z[i];
      } else {
        // The scalar level is the libm path itself.
        EXPECT_EQ(std::memcmp(p.data(), p_ref.data(), n * sizeof(float)), 0);
        EXPECT_EQ(std::memcmp(l.data(), l_ref.data(), n * sizeof(float)), 0);
      }
    }
    // The sigmoid-only entry point (null log_term) matches, and a
    // repeated call is bitwise stable at every level.
    EXPECT_EQ(std::memcmp(p.data(), p_again.data(), n * sizeof(float)), 0)
        << simd::level_name(level);
  }
}

TEST(SimdDispatch, SigmoidTermsSupportInPlace) {
  std::vector<float> z = {-3.0f, -1.0f, 0.0f, 0.25f, 2.0f, 5.0f, -9.0f};
  for (const simd::Level level : available_levels()) {
    std::vector<float> expected(z.size());
    simd::sigmoid_terms(level, z.data(), z.size(), expected.data(), nullptr);
    std::vector<float> buf = z;
    simd::sigmoid_terms(level, buf.data(), buf.size(), buf.data(), nullptr);
    EXPECT_EQ(
        std::memcmp(buf.data(), expected.data(), buf.size() * sizeof(float)),
        0)
        << simd::level_name(level);
  }
}

// --- Full-pipeline determinism -------------------------------------------

/// Everything observable about a profiler run that determinism must pin:
/// repository structure, validation scores, decision-model outputs, and
/// the engine's frame-by-frame behaviour (sequential and batch paths).
struct RunSnapshot {
  std::vector<std::string> model_names;
  std::vector<double> validation_f1;
  std::vector<std::size_t> cluster_k;
  std::vector<std::vector<std::size_t>> scene_classes;
  double encoder_accuracy = 0.0;
  std::size_t decision_samples = 0;
  std::vector<float> suitability;
  std::vector<std::size_t> served_sequence;
  std::vector<std::size_t> batch_served_sequence;
  std::vector<double> confidence_sequence;
  std::vector<double> batch_confidence_sequence;
  std::size_t detection_count = 0;
  std::size_t batch_detection_count = 0;
};

RunSnapshot run_profiler_snapshot(std::size_t threads) {
  par::set_thread_count(threads);
  world::World world = world::make_benchmark_world(micro_world_config());
  Rng rng(7);
  core::ProfilerReport report;
  core::OfflineProfiler profiler(micro_profiler_config());
  core::AnoleSystem system = profiler.run(world, rng, &report);

  RunSnapshot snap;
  for (std::size_t m = 0; m < system.repository.size(); ++m) {
    const core::SceneModel& model = system.repository.model(m);
    snap.model_names.push_back(model.name);
    snap.validation_f1.push_back(model.validation_f1);
    snap.cluster_k.push_back(model.cluster_k);
    snap.scene_classes.push_back(model.scene_classes);
  }
  snap.encoder_accuracy = report.encoder_train_accuracy;
  snap.decision_samples = report.decision_samples;

  const auto frames = world.frames_with_role(world::SplitRole::kTest);
  const std::size_t n_frames = std::min<std::size_t>(frames.size(), 30);
  const std::vector<const world::Frame*> sample(frames.begin(),
                                                frames.begin() + n_frames);

  const world::FrameFeaturizer featurizer;
  const Tensor probs =
      system.decision->suitability(featurizer.featurize_batch(sample));
  snap.suitability.assign(probs.data().begin(), probs.data().end());

  core::EngineConfig engine_config;
  engine_config.cache.capacity = 3;
  core::AnoleEngine sequential_engine(system, engine_config);
  for (const world::Frame* frame : sample) {
    const auto result = sequential_engine.process(*frame);
    snap.served_sequence.push_back(result.served_model);
    snap.confidence_sequence.push_back(result.top1_confidence);
    snap.detection_count += result.detections.size();
  }
  core::AnoleEngine batch_engine(system, engine_config);
  for (const auto& result : batch_engine.process_batch(sample)) {
    snap.batch_served_sequence.push_back(result.served_model);
    snap.batch_confidence_sequence.push_back(result.top1_confidence);
    snap.batch_detection_count += result.detections.size();
  }
  return snap;
}

TEST(PipelineDeterminism, ProfilerAndEngineIdenticalAtOneAndFourThreads) {
  ThreadCountGuard guard;
  set_log_level(LogLevel::kError);
  const RunSnapshot serial = run_profiler_snapshot(1);
  const RunSnapshot parallel = run_profiler_snapshot(4);

  ASSERT_FALSE(serial.model_names.empty());
  EXPECT_EQ(serial.model_names, parallel.model_names);
  EXPECT_EQ(serial.validation_f1, parallel.validation_f1);
  EXPECT_EQ(serial.cluster_k, parallel.cluster_k);
  EXPECT_EQ(serial.scene_classes, parallel.scene_classes);
  EXPECT_EQ(serial.encoder_accuracy, parallel.encoder_accuracy);
  EXPECT_EQ(serial.decision_samples, parallel.decision_samples);
  EXPECT_EQ(serial.suitability, parallel.suitability);
  EXPECT_EQ(serial.served_sequence, parallel.served_sequence);
  EXPECT_EQ(serial.confidence_sequence, parallel.confidence_sequence);
  EXPECT_EQ(serial.detection_count, parallel.detection_count);

  // Batch processing must match sequential processing exactly, at both
  // thread counts.
  EXPECT_EQ(serial.served_sequence, serial.batch_served_sequence);
  EXPECT_EQ(serial.confidence_sequence, serial.batch_confidence_sequence);
  EXPECT_EQ(serial.detection_count, serial.batch_detection_count);
  EXPECT_EQ(parallel.served_sequence, parallel.batch_served_sequence);
  EXPECT_EQ(parallel.confidence_sequence,
            parallel.batch_confidence_sequence);
  EXPECT_EQ(parallel.detection_count, parallel.batch_detection_count);
}


// --- Algorithm 1's candidate queue -----------------------------------------
//
// train_model_repository trains every granularity's candidates from one
// ordered queue and skips those behind a filled repository. What it
// accepts, and where it leaves the parent Rng, must match the ordered
// k-sweep at every thread count.

/// What the sweep leaves behind: the accepted models and the parent Rng's
/// next draw (backfill, ASS and M_decision continue from that stream).
struct RepositorySnapshot {
  std::vector<std::string> names;
  std::vector<std::size_t> cluster_k;
  std::vector<std::vector<std::size_t>> scene_classes;
  std::vector<double> validation_f1;
  std::uint64_t next_draw = 0;
};

/// Algorithm 1 on the micro world (6 scene classes, k = 2..6, 10
/// candidates). Detectors train 3 epochs each with a 0.2 confidence
/// threshold: cheap, and their validation F1 scores still differ enough
/// for the acceptance threshold to split them.
RepositorySnapshot run_repository_sweep(std::size_t target_models,
                                        double acceptance_threshold,
                                        std::size_t threads) {
  par::set_thread_count(threads);
  const world::World world = world::make_benchmark_world(micro_world_config());
  const auto train = world.frames_with_role(world::SplitRole::kTrain);
  const auto val = world.frames_with_role(world::SplitRole::kValidation);
  const auto index = core::SemanticSceneIndex::build(train);
  core::SceneEncoderConfig encoder_config;
  encoder_config.train.epochs = 10;
  Rng rng(7);
  core::SceneEncoder encoder(index.class_count(), encoder_config, rng);
  const world::FrameFeaturizer featurizer;
  encoder.train(featurizer.featurize_batch(train), index.labels_of(train),
                rng);

  core::RepositoryConfig config;
  config.target_models = target_models;
  config.acceptance_threshold = acceptance_threshold;
  config.detector_config.confidence_threshold = 0.2;
  config.detector_train.epochs = 3;
  config.detector_train.reference_frames = 1;
  config.min_training_frames = 20;
  config.min_validation_frames = 4;
  const core::ModelRepository repository =
      core::train_model_repository(encoder, index, train, val, config, rng);

  RepositorySnapshot snap;
  for (std::size_t m = 0; m < repository.size(); ++m) {
    const core::SceneModel& model = repository.model(m);
    // Names are assigned at acceptance; the saved detector carries it too.
    EXPECT_EQ(model.detector->name(), model.name);
    snap.names.push_back(model.name);
    snap.cluster_k.push_back(model.cluster_k);
    snap.scene_classes.push_back(model.scene_classes);
    snap.validation_f1.push_back(model.validation_f1);
  }
  snap.next_draw = rng();
  return snap;
}

/// Recorded from the per-granularity sweep (one parallel wave per k)
/// under the scalar SIMD level.
struct SweepGolden {
  std::vector<std::string> names;
  std::vector<std::size_t> cluster_k;
  std::vector<std::vector<std::size_t>> scene_classes;
  std::uint64_t next_draw = 0;
};

void expect_queue_matches_ordered_sweep(std::size_t target_models,
                                        double acceptance_threshold,
                                        const SweepGolden& golden) {
  ThreadCountGuard threads_guard;
  set_log_level(LogLevel::kError);
  const RepositorySnapshot serial =
      run_repository_sweep(target_models, acceptance_threshold, 1);
  ASSERT_FALSE(serial.names.empty());
  for (std::size_t threads = 2; threads <= 4; ++threads) {
    SCOPED_TRACE(threads);
    const RepositorySnapshot pooled =
        run_repository_sweep(target_models, acceptance_threshold, threads);
    EXPECT_EQ(serial.names, pooled.names);
    EXPECT_EQ(serial.cluster_k, pooled.cluster_k);
    EXPECT_EQ(serial.scene_classes, pooled.scene_classes);
    EXPECT_EQ(serial.validation_f1, pooled.validation_f1);
    EXPECT_EQ(serial.next_draw, pooled.next_draw);
  }

  // Four lanes: the most candidates trained speculatively past the fill.
  SimdLevelGuard simd_guard(simd::Level::kScalar);
  const RepositorySnapshot scalar =
      run_repository_sweep(target_models, acceptance_threshold, 4);
  EXPECT_EQ(scalar.names, golden.names);
  EXPECT_EQ(scalar.cluster_k, golden.cluster_k);
  EXPECT_EQ(scalar.scene_classes, golden.scene_classes);
  EXPECT_EQ(scalar.next_draw, golden.next_draw);
}

TEST(RepositoryQueue, TargetFilledPartwayThroughAGranularity) {
  // Fills at k = 3's first candidate; k = 3's second was still split off
  // the parent Rng, and k >= 4 never was.
  expect_queue_matches_ordered_sweep(
      3, 0.0,
      {{"M1(k=2,c=0)", "M2(k=2,c=1)", "M3(k=3,c=0)"},
       {2, 2, 3},
       {{1, 2, 3}, {0, 4, 5}, {0, 5}},
       104902765991755884ULL});
}

TEST(RepositoryQueue, RejectedCandidatesAreWalkedPast) {
  // Rejects (k=2,c=0), (k=3,c=1) and (k=4,c=1); fills exactly at the end of
  // k = 4. Names number the models by repository index, rejections or not.
  expect_queue_matches_ordered_sweep(
      3, 0.02,
      {{"M1(k=2,c=1)", "M2(k=3,c=0)", "M3(k=4,c=3)"},
       {2, 3, 4},
       {{0, 4, 5}, {0, 5}, {1}},
       18210392735207548193ULL});
}

TEST(RepositoryQueue, UnreachableTargetBackfillsFromTheParentRng) {
  // Every granularity runs; the uncovered scenes are then backfilled from
  // the parent Rng, which must sit where the serial sweep left it.
  expect_queue_matches_ordered_sweep(
      100, 0.03,
      {{"M1(k=3,c=0)", "M2(k=5,c=2)", "M3(scene=1)", "M4(scene=3)",
        "M5(scene=4)"},
       {3, 5, 0, 0, 0},
       {{0, 5}, {2}, {1}, {3}, {4}},
       578429742658494059ULL});
}

// --- ASS: plan every round, score each distinct frame once, assemble ------
//
// build_decision_dataset draws all rounds up front, scores each distinct
// sampled frame against every model in one fan-out, and assembles the
// labels in round order. Its output must match the per-round loop it
// replaced (one pool barrier per round) at every thread count.

/// Everything build_decision_dataset returns, plus where it leaves the
/// parent Rng.
struct AssSnapshot {
  std::size_t samples = 0;
  /// Distinct feature rows: fewer than `samples` means a frame was drawn
  /// in more than one round.
  std::size_t distinct_frames = 0;
  /// Distinct best_model values: more than one means the scores decide
  /// the labels rather than the all-zero fallback.
  std::size_t best_models_seen = 0;
  /// FNV-1a over the bits of every features and targets value.
  std::uint64_t tensor_digest = 0;
  /// FNV-1a over (best_model, source_arm, semantic_scene) per sample.
  std::uint64_t label_digest = 0;
  std::vector<double> draws_per_model;
  std::uint64_t next_draw = 0;
};

AssSnapshot run_ass(core::ModelRepository& repository, bool adaptive) {
  core::DecisionSamplingConfig config;
  config.budget = 150;
  config.adaptive = adaptive;
  Rng rng(23);
  const core::DecisionDataset dataset =
      core::build_decision_dataset(repository, config, rng);

  AssSnapshot snap;
  snap.samples = dataset.features.rows();
  Fnv1a tensors;
  for (const Tensor* t : {&dataset.features, &dataset.targets}) {
    for (float value : t->data()) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &value, sizeof(bits));
      tensors.mix(bits);
    }
  }
  snap.tensor_digest = tensors.value();
  Fnv1a labels;
  for (std::size_t i = 0; i < snap.samples; ++i) {
    labels.mix(dataset.best_model.at(i));
    labels.mix(dataset.source_arm.at(i));
    labels.mix(dataset.semantic_scene.at(i));
  }
  snap.label_digest = labels.value();
  std::set<std::vector<float>> rows;
  for (std::size_t i = 0; i < snap.samples; ++i) {
    const auto row = dataset.features.row(i);
    rows.emplace(row.begin(), row.end());
  }
  snap.distinct_frames = rows.size();
  snap.best_models_seen =
      std::set<std::size_t>(dataset.best_model.begin(),
                            dataset.best_model.end())
          .size();
  snap.draws_per_model = dataset.draws_per_model;
  snap.next_draw = rng();
  return snap;
}

void expect_ass_snapshot(const AssSnapshot& actual,
                         const AssSnapshot& expected) {
  EXPECT_EQ(actual.samples, expected.samples);
  EXPECT_EQ(actual.distinct_frames, expected.distinct_frames);
  EXPECT_EQ(actual.best_models_seen, expected.best_models_seen);
  EXPECT_EQ(actual.tensor_digest, expected.tensor_digest);
  EXPECT_EQ(actual.label_digest, expected.label_digest);
  EXPECT_EQ(actual.draws_per_model, expected.draws_per_model);
  EXPECT_EQ(actual.next_draw, expected.next_draw);
}

TEST(AssPlan, MatchesPerRoundLoopAtEveryThreadCount) {
  ThreadCountGuard threads_guard;
  SimdLevelGuard simd_guard(simd::Level::kScalar);
  set_log_level(LogLevel::kError);
  const world::World world = world::make_benchmark_world(micro_world_config());
  // Detectors trained long enough, and thresholded low enough, to score
  // above zero on most frames: at the micro config's defaults every
  // frame-F1 is 0 and every label is the model-0 fallback.
  core::ProfilerConfig config = micro_profiler_config();
  config.repository.detector_config.confidence_threshold = 0.2;
  config.repository.detector_train.epochs = 8;
  Rng rng(7);
  core::OfflineProfiler profiler(config);
  core::AnoleSystem system = profiler.run(world, rng);
  ASSERT_EQ(system.repository.size(), 5u);

  // Recorded from the per-round loop under the scalar SIMD level.
  const AssSnapshot adaptive_golden{150,
                                    40,
                                    5,
                                    0xc3f66b980813aef1ULL,
                                    0x74b4b6649f4d8153ULL,
                                    {29, 32, 28, 31, 30},
                                    10944946611903599176ULL};
  const AssSnapshot random_golden{150,
                                  39,
                                  5,
                                  0xfde798543e2e8878ULL,
                                  0x714370bfb86cf093ULL,
                                  {35, 32, 23, 33, 27},
                                  14709271709437224214ULL};
  for (std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    par::set_thread_count(threads);
    const AssSnapshot adaptive = run_ass(system.repository, true);
    const AssSnapshot random = run_ass(system.repository, false);
    // Repeat draws exercise the one-score-per-distinct-frame path.
    EXPECT_LT(adaptive.distinct_frames, adaptive.samples);
    EXPECT_LT(random.distinct_frames, random.samples);
    expect_ass_snapshot(adaptive, adaptive_golden);
    expect_ass_snapshot(random, random_golden);
  }
}

}  // namespace
}  // namespace anole
