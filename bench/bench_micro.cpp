// Micro-benchmarks of the hot paths.
//
// Default mode runs a deterministic timing suite over the SIMD and
// kernel layers — matmul GFLOP/s, int8 qgemm vs fp32 matmul at a
// detector layer shape (with the int8 call split into its quantize and
// dot stages), per-frame featurization, k-means wall time, and one
// detector training step split into its phases. Kernels are timed
// against a pinned scalar 1-thread reference (the headline "speedup" is
// the active dispatch level at 4 pool threads vs that reference). The
// suite verifies bitwise thread-count invariance at 1/2/4 threads, plus
// bitwise *level* invariance for the int8 and k-means paths, then times
// the post-training quantize/dequantize pass and fp32 vs int8-quantized
// artifact loads on a system trained by one untimed OSP run, and writes
// the numbers after their provenance (bench::write_provenance) to
// BENCH_micro.json in the working directory. Exit is non-zero on a
// determinism failure or — when a vector level is active — on a speedup
// below the committed floors. OSP and engine-batch wall time are
// perfbench's (`osp_standard` and the traced `stream_clean` run).
//
// `bench_micro --gbench [google-benchmark flags]` instead runs the
// google-benchmark suite (tensor matmul, detector forward, featurization,
// k-means, Thompson sampling rounds, cache admission), which measures this
// host's actual per-operation cost and complements the calibrated device
// simulator used by the table/figure benches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "cluster/kmeans.hpp"
#include "core/artifact.hpp"
#include "core/engine.hpp"
#include "core/model_cache.hpp"
#include "core/quantize.hpp"
#include "detect/detector_trainer.hpp"
#include "detect/grid_detector.hpp"
#include "nn/optimizer.hpp"
#include "sampling/thompson.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/simd.hpp"
#include "util/parallel.hpp"
#include "world/featurizer.hpp"
#include "world/world.hpp"

namespace {

using namespace anole;

void BM_TensorMatmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::matrix(n, n);
  Tensor b = Tensor::matrix(n, n);
  for (auto& v : a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b.data()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_TensorMatmul)->Arg(16)->Arg(64)->Arg(128)->Complexity();

world::Frame make_frame(std::uint64_t seed) {
  Rng rng(seed);
  world::FrameGenerator generator;
  const world::SceneAttributes attrs{world::Weather::kClear,
                                     world::Location::kUrban,
                                     world::TimeOfDay::kDaytime};
  const auto style = world::SceneStyle::from_attributes(attrs);
  std::vector<world::ObjectInstance> objects;
  for (int i = 0; i < 5; ++i) objects.push_back(generator.sample_object(style, rng));
  return generator.render(style, attrs, objects, rng);
}

void BM_DetectorCompressed(benchmark::State& state) {
  Rng rng(2);
  detect::GridDetector detector(detect::GridDetectorConfig::compressed(),
                                rng);
  const auto frame = make_frame(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.detect(frame));
  }
}
BENCHMARK(BM_DetectorCompressed);

void BM_DetectorLarge(benchmark::State& state) {
  Rng rng(2);
  detect::GridDetector detector(detect::GridDetectorConfig::large(), rng);
  const auto frame = make_frame(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.detect(frame));
  }
}
BENCHMARK(BM_DetectorLarge);

void BM_FrameFeaturize(benchmark::State& state) {
  const world::FrameFeaturizer featurizer;
  const auto frame = make_frame(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(featurizer.featurize(frame));
  }
}
BENCHMARK(BM_FrameFeaturize);

void BM_FrameRender(benchmark::State& state) {
  Rng rng(5);
  world::FrameGenerator generator;
  const world::SceneAttributes attrs{world::Weather::kRainy,
                                     world::Location::kHighway,
                                     world::TimeOfDay::kNight};
  const auto style = world::SceneStyle::from_attributes(attrs);
  std::vector<world::ObjectInstance> objects;
  for (int i = 0; i < 5; ++i) objects.push_back(generator.sample_object(style, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.render(style, attrs, objects, rng));
  }
}
BENCHMARK(BM_FrameRender);

void BM_KMeans(benchmark::State& state) {
  Rng rng(6);
  const std::size_t n = 200;
  Tensor points = Tensor::matrix(n, 48);
  for (auto& v : points.data()) v = static_cast<float>(rng.normal());
  cluster::KMeansConfig config;
  config.clusters = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Rng inner(7);
    benchmark::DoNotOptimize(cluster::kmeans(points, config, inner));
  }
}
BENCHMARK(BM_KMeans)->Arg(2)->Arg(8)->Arg(16);

void BM_ThompsonRound(benchmark::State& state) {
  std::vector<std::size_t> sizes(19, 500);
  sampling::AdaptiveSceneSampler sampler(sizes, 0.9);
  Rng rng(8);
  for (auto _ : state) {
    const auto arm = sampler.next_arm(rng);
    if (arm) sampler.record_draw(*arm);
  }
}
BENCHMARK(BM_ThompsonRound);

void BM_CacheAdmit(benchmark::State& state) {
  core::CacheConfig config;
  config.capacity = 5;
  core::ModelCache cache(19, config);
  Rng rng(9);
  std::vector<std::size_t> ranking = random_permutation(19, rng);
  for (auto _ : state) {
    rng.shuffle(ranking);
    benchmark::DoNotOptimize(cache.admit(ranking));
  }
}
BENCHMARK(BM_CacheAdmit);

// --- Deterministic JSON suite --------------------------------------------

/// Thread count the parallel numbers are reported at.
constexpr std::size_t kBenchThreads = 4;

/// Wall seconds for one 512x512 matmul (best of `reps`) plus a checksum
/// of the product for cross-thread-count comparison.
struct MatmulSample {
  double seconds = 0.0;
  double gflops = 0.0;
  float checksum = 0.0f;
};

MatmulSample time_matmul(std::size_t n, int reps) {
  Rng rng(21);
  Tensor a = Tensor::matrix(n, n);
  Tensor b = Tensor::matrix(n, n);
  for (auto& v : a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : b.data()) v = static_cast<float>(rng.normal());
  MatmulSample sample;
  sample.seconds = 1e30;
  Tensor c;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    c = matmul(a, b);
    sample.seconds = std::min(sample.seconds, bench::seconds_since(start));
  }
  const double flop = 2.0 * static_cast<double>(n) * n * n;
  sample.gflops = flop / sample.seconds / 1e9;
  sample.checksum = c.sum();
  return sample;
}

/// Best-of-`reps` host microseconds per call of `fn`, each rep timing a
/// batch of `iters` calls.
template <typename Fn>
double best_us_per_call(int reps, int iters, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, bench::seconds_since(start));
  }
  return best / iters * 1e6;
}

/// fp32 matmul vs int8 qgemm microseconds per call at one layer shape,
/// the int8 call split into its two stages at the current dispatch level
/// (quantizing the activation rows, then the int8 dot with fused
/// dequant), plus the int8 product for cross-thread-count bitwise
/// comparison.
struct GemmSample {
  double fp32_us = 0.0;
  double int8_us = 0.0;
  double quantize_us = 0.0;
  double dot_us = 0.0;
  Tensor int8_product;
};

GemmSample time_qgemm(std::size_t m, std::size_t k, std::size_t n, int reps,
                      int iters) {
  Rng rng(24);
  Tensor x = Tensor::matrix(m, k);
  Tensor w = Tensor::matrix(k, n);
  for (auto& v : x.data()) v = static_cast<float>(rng.normal());
  for (auto& v : w.data()) v = static_cast<float>(rng.normal());
  const QuantizedMatrix q = quantize_weights(w);
  GemmSample sample;
  sample.fp32_us = best_us_per_call(reps, iters, [&] {
    Tensor c = matmul(x, w);
    benchmark::DoNotOptimize(c.data().data());
  });
  sample.int8_us = best_us_per_call(reps, iters, [&] {
    Tensor c = qgemm(x, q);
    benchmark::DoNotOptimize(c.data().data());
  });
  const simd::Level level = simd::active_level();
  const std::size_t kp = q.padded_depth;
  std::vector<std::int16_t> xq(m * kp);
  std::vector<float> xscale(m);
  std::vector<float> y(m * n);
  sample.quantize_us = best_us_per_call(reps, iters, [&] {
    for (std::size_t i = 0; i < m; ++i) {
      xscale[i] =
          simd::quantize_row_int16(level, x.row(i), xq.data() + i * kp, kp);
    }
    benchmark::DoNotOptimize(xq.data());
  });
  sample.dot_us = best_us_per_call(reps, iters, [&] {
    simd::qgemm_rows(level, 0, m, n, kp, xq.data(), xscale.data(),
                     q.exec.data(), q.scales.data(), nullptr, y.data());
    benchmark::DoNotOptimize(y.data());
  });
  sample.int8_product = qgemm(x, q);
  return sample;
}

/// Host microseconds per FrameFeaturizer::featurize call on one rendered
/// frame: the per-frame descriptor every served frame pays before
/// M_decision runs.
double time_featurize(int reps, int iters) {
  const world::FrameFeaturizer featurizer;
  const world::Frame frame = make_frame(4);
  return best_us_per_call(reps, iters, [&] {
    Tensor descriptor = featurizer.featurize(frame);
    benchmark::DoNotOptimize(descriptor.data().data());
  });
}

/// Quantize/dequantize pass wall time plus fp32 vs int8-quantized
/// artifact bytes and load latency on the OSP-trained system.
struct QuantArtifactSample {
  double quantize_seconds = 0.0;
  double dequantize_seconds = 0.0;
  std::size_t quantized_detectors = 0;
  std::size_t rejected_detectors = 0;
  std::size_t fp32_bytes = 0;
  std::size_t quantized_bytes = 0;
  double fp32_load_seconds = 0.0;
  double quantized_load_seconds = 0.0;
};

double time_artifact_load(const std::string& blob, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    std::istringstream in(blob, std::ios::binary);
    const auto start = std::chrono::steady_clock::now();
    core::AnoleSystem loaded = core::load_system(in);
    best = std::min(best, bench::seconds_since(start));
    benchmark::DoNotOptimize(loaded.model_count());
  }
  return best;
}

QuantArtifactSample time_quant_artifact(core::AnoleSystem& system) {
  QuantArtifactSample sample;
  std::ostringstream fp32(std::ios::binary);
  core::save_system(system, fp32);
  const std::string fp32_blob = fp32.str();
  sample.fp32_bytes = fp32_blob.size();
  sample.fp32_load_seconds = time_artifact_load(fp32_blob, 3);

  auto start = std::chrono::steady_clock::now();
  const core::QuantizeReport report = core::quantize_system(system);
  sample.quantize_seconds = bench::seconds_since(start);
  sample.quantized_detectors = report.quantized_detectors;
  sample.rejected_detectors = report.rejected_detectors;

  std::ostringstream quantized(std::ios::binary);
  core::save_system(system, quantized);
  const std::string quantized_blob = quantized.str();
  sample.quantized_bytes = quantized_blob.size();
  sample.quantized_load_seconds = time_artifact_load(quantized_blob, 3);

  start = std::chrono::steady_clock::now();
  (void)core::dequantize_system(system);
  sample.dequantize_seconds = bench::seconds_since(start);
  return sample;
}

struct KMeansSample {
  double seconds = 0.0;
  double inertia = 0.0;
};

KMeansSample time_kmeans(int reps) {
  Rng rng(22);
  Tensor points = Tensor::matrix(2000, 48);
  for (auto& v : points.data()) v = static_cast<float>(rng.normal());
  cluster::KMeansConfig config;
  config.clusters = 16;
  KMeansSample sample;
  sample.seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    Rng inner(23);
    const auto start = std::chrono::steady_clock::now();
    const auto result = cluster::kmeans(points, config, inner);
    sample.seconds = std::min(sample.seconds, bench::seconds_since(start));
    sample.inertia = result.inertia;
  }
  return sample;
}

/// The trained OSP output the artifact and training-step sections use.
/// The world must outlive the system: the repository's validation pools
/// hold frame pointers into it (moving the world relocates only the
/// top-level containers, so the pointers stay valid).
struct OspArtifacts {
  world::World world;
  core::AnoleSystem system;
};

/// Offline scene profiling on a reduced world (the standard profiler on
/// the full bench world takes minutes per run). Untimed: perfbench's
/// `osp_standard` workload measures OSP end to end, with repeats.
OspArtifacts train_osp() {
  world::WorldConfig world_config = bench::standard_world_config();
  world_config.frames_per_clip = 60;
  world_config.clip_scale = 0.2;
  OspArtifacts out{world::make_benchmark_world(world_config), {}};

  core::ProfilerConfig profiler_config = bench::standard_profiler_config();
  profiler_config.repository.target_models = 8;
  profiler_config.sampling.budget = 400;

  Rng rng(7);
  out.system = core::OfflineProfiler(profiler_config).run(out.world, rng);
  return out;
}

/// Host microseconds per detector training step, split by phase, for one
/// Algorithm 1 candidate shape: a compressed detector (42 -> 16 -> 5 per
/// cell) on 8-frame batches, trained for 6x the default epochs (the cap a
/// small cluster's training set is scaled to). Each step is
/// train_detector's own (stack_batch, forward, detector_loss,
/// parameter-only backward, Adam) with a clock read between phases, so
/// the five phases add up to the step. `reps` fresh trainings from one
/// seed; the phases are those of the rep with the median step time, and
/// the fastest and slowest reps give the spread.
struct TrainStepSample {
  std::size_t reps = 0;
  std::size_t frames = 0;
  std::size_t steps = 0;
  std::size_t cells_per_batch = 0;
  double assemble_us = 0.0;
  double forward_us = 0.0;
  double loss_us = 0.0;
  double backward_us = 0.0;
  double adam_us = 0.0;
  double step_us = 0.0;
  double step_us_min = 0.0;
  double step_us_max = 0.0;
};

TrainStepSample time_train_one(const std::vector<const world::Frame*>& frames) {
  using Clock = std::chrono::steady_clock;
  const detect::DetectorTrainConfig config;
  Rng rng(31);
  detect::GridDetector detector(detect::GridDetectorConfig::compressed(),
                                rng);
  nn::Sequential& net = detector.network();
  net.set_training(true);
  nn::Adam optimizer(net.parameters(), config.learning_rate, 0.9, 0.999,
                     1e-8, config.weight_decay);
  std::vector<Tensor> inputs;
  std::vector<detect::GridDetector::Targets> targets;
  for (const world::Frame* frame : frames) {
    inputs.push_back(detect::GridDetector::build_inputs(*frame));
    targets.push_back(detect::GridDetector::build_targets(*frame));
  }
  Clock::duration phase[5] = {};
  TrainStepSample sample;
  sample.frames = frames.size();
  for (std::size_t epoch = 0; epoch < 6 * config.epochs; ++epoch) {
    const std::vector<std::size_t> order =
        random_permutation(frames.size(), rng);
    for (std::size_t start = 0; start < order.size();
         start += config.frames_per_batch) {
      const std::size_t count =
          std::min(config.frames_per_batch, order.size() - start);
      const Clock::time_point t0 = Clock::now();
      detect::DetectorBatch batch = detect::stack_batch(
          inputs, targets,
          std::span<const std::size_t>(order).subspan(start, count));
      const Clock::time_point t1 = Clock::now();
      const Tensor outputs = net.forward(std::move(batch.inputs));
      const Clock::time_point t2 = Clock::now();
      Tensor grad;
      const detect::DetectorLoss loss = detect::detector_loss(
          outputs, batch.targets, static_cast<float>(config.positive_weight),
          config.box_loss_weight, grad);
      const Clock::time_point t3 = Clock::now();
      net.accumulate_gradients(grad);
      const Clock::time_point t4 = Clock::now();
      optimizer.step();
      const Clock::time_point t5 = Clock::now();
      benchmark::DoNotOptimize(loss.objectness);
      phase[0] += t1 - t0;
      phase[1] += t2 - t1;
      phase[2] += t3 - t2;
      phase[3] += t4 - t3;
      phase[4] += t5 - t4;
      if (start == 0) sample.cells_per_batch = outputs.rows();
      ++sample.steps;
    }
  }
  const auto per_step_us = [&](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count() /
           static_cast<double>(sample.steps);
  };
  sample.assemble_us = per_step_us(phase[0]);
  sample.forward_us = per_step_us(phase[1]);
  sample.loss_us = per_step_us(phase[2]);
  sample.backward_us = per_step_us(phase[3]);
  sample.adam_us = per_step_us(phase[4]);
  sample.step_us = per_step_us(phase[0] + phase[1] + phase[2] + phase[3] +
                               phase[4]);
  return sample;
}

TrainStepSample time_detector_train_step(const world::World& world,
                                         std::size_t frame_count,
                                         std::size_t reps) {
  std::vector<const world::Frame*> frames =
      world.frames_with_role(world::SplitRole::kTrain);
  frames.resize(std::min(frames.size(), frame_count));
  std::vector<TrainStepSample> runs;
  for (std::size_t r = 0; r < reps; ++r) {
    runs.push_back(time_train_one(frames));
  }
  std::sort(runs.begin(), runs.end(),
            [](const TrainStepSample& a, const TrainStepSample& b) {
              return a.step_us < b.step_us;
            });
  TrainStepSample sample = runs[runs.size() / 2];
  sample.reps = reps;
  sample.step_us_min = runs.front().step_us;
  sample.step_us_max = runs.back().step_us;
  return sample;
}

/// One matmul+qgemm+kmeans measurement at the current dispatch level and
/// pool thread count.
struct KernelSet {
  MatmulSample matmul;
  GemmSample qgemm;
  KMeansSample kmeans;
};

KernelSet run_kernels(std::size_t m, std::size_t k, std::size_t n) {
  KernelSet set;
  set.matmul = time_matmul(512, 5);
  set.qgemm = time_qgemm(m, k, n, 5, 512);
  set.kmeans = time_kmeans(3);
  return set;
}

bool bitwise_equal_tensor(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

bool bitwise_equal_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

int run_json_suite() {
  set_log_level(LogLevel::kWarn);
  // Provenance first, while the pool and dispatch level are the
  // process defaults the suite then overrides section by section.
  JsonWriter json;
  bench::write_provenance(json);
  const simd::Level active = simd::active_level();
  std::fprintf(stderr,
               "[bench_micro] deterministic suite at commit %s: SIMD "
               "detected=%s active=%s, scalar 1T reference vs active at "
               "1/2/%zu pool threads\n",
               ANOLE_BENCH_COMMIT, simd::level_name(simd::detected_level()),
               simd::level_name(active), kBenchThreads);

  /// Detector L1 shape at a full-batch row count: the layer the int8 fast
  /// path serves most often.
  constexpr std::size_t kQgemmM = 144, kQgemmK = 42, kQgemmN = 16;

  // Scalar serial reference: the denominator of every headline speedup.
  simd::set_level(simd::Level::kScalar);
  par::set_thread_count(1);
  const KernelSet scalar_1t = run_kernels(kQgemmM, kQgemmK, kQgemmN);
  simd::reset_level();

  // The active dispatch level at 1/2/4 pool threads.
  par::set_thread_count(1);
  const KernelSet active_1t = run_kernels(kQgemmM, kQgemmK, kQgemmN);
  const double featurize_us = time_featurize(5, 2000);
  par::set_thread_count(2);
  const KernelSet active_2t = run_kernels(kQgemmM, kQgemmK, kQgemmN);
  par::set_thread_count(kBenchThreads);
  const KernelSet active_4t = run_kernels(kQgemmM, kQgemmK, kQgemmN);
  std::fprintf(stderr, "[bench_micro] OSP on a reduced world at %zu "
               "threads (untimed)...\n", kBenchThreads);
  OspArtifacts osp = train_osp();

  std::fprintf(stderr,
               "[bench_micro] quantize pass + fp32/int8 artifact loads...\n");
  const QuantArtifactSample quant = time_quant_artifact(osp.system);

  // One Algorithm 1 candidate's training steps at the active level, on
  // the calling thread (as each candidate trains on one pool worker).
  std::fprintf(stderr, "[bench_micro] detector training step phases...\n");
  const TrainStepSample train_step =
      time_detector_train_step(osp.world, 216, 5);
  par::set_thread_count(0);

  // Bitwise thread-count invariance at the active level (1 vs 2 vs 4).
  const bool matmul_identical =
      std::memcmp(&active_1t.matmul.checksum, &active_2t.matmul.checksum,
                  sizeof(float)) == 0 &&
      std::memcmp(&active_1t.matmul.checksum, &active_4t.matmul.checksum,
                  sizeof(float)) == 0;
  const bool qgemm_identical =
      bitwise_equal_tensor(active_1t.qgemm.int8_product,
                           active_2t.qgemm.int8_product) &&
      bitwise_equal_tensor(active_1t.qgemm.int8_product,
                           active_4t.qgemm.int8_product);
  const bool kmeans_identical =
      bitwise_equal_double(active_1t.kmeans.inertia,
                           active_2t.kmeans.inertia) &&
      bitwise_equal_double(active_1t.kmeans.inertia,
                           active_4t.kmeans.inertia);
  // Bitwise *level* invariance where the kernels promise it: the int8
  // path and the k-means distance kernel (fp32 GEMM at AVX2 uses FMA and
  // is exempt by contract — DESIGN.md §13).
  const bool qgemm_level_identical = bitwise_equal_tensor(
      scalar_1t.qgemm.int8_product, active_4t.qgemm.int8_product);
  const bool kmeans_level_identical = bitwise_equal_double(
      scalar_1t.kmeans.inertia, active_4t.kmeans.inertia);

  // Headline speedups: active level at 4 threads vs the scalar serial
  // reference.
  const double matmul_speedup =
      active_4t.matmul.gflops / scalar_1t.matmul.gflops;
  const double qgemm_speedup =
      scalar_1t.qgemm.int8_us / active_4t.qgemm.int8_us;
  const double kmeans_speedup =
      scalar_1t.kmeans.seconds / active_4t.kmeans.seconds;

  json.begin_object("matmul_512")
      .number("gflops_scalar_1t", scalar_1t.matmul.gflops, 4)
      .number("speedup", matmul_speedup, 4)
      .boolean("identical_results", matmul_identical)
      .end_object();
  json.begin_object("qgemm_144x42x16")
      .number("fp32_us_1t", active_1t.qgemm.fp32_us, 4)
      .number("int8_us_scalar_1t", scalar_1t.qgemm.int8_us, 4)
      .number("int8_speedup_vs_fp32",
              active_1t.qgemm.fp32_us / active_1t.qgemm.int8_us, 4)
      .number("quantize_us_1t", active_1t.qgemm.quantize_us, 4)
      .number("dot_us_1t", active_1t.qgemm.dot_us, 4)
      .number("speedup", qgemm_speedup, 4)
      .boolean("identical_results", qgemm_identical)
      .boolean("identical_across_levels", qgemm_level_identical)
      .end_object();
  json.begin_object("featurize")
      .number("featurize_us_per_frame", featurize_us, 4)
      .end_object();
  json.begin_object("quantize_pass")
      .number("quantize_seconds", quant.quantize_seconds, 6)
      .number("dequantize_seconds", quant.dequantize_seconds, 6)
      .integer("quantized_detectors", quant.quantized_detectors)
      .integer("rejected_detectors", quant.rejected_detectors)
      .end_object();
  json.begin_object("artifact_load")
      .integer("fp32_bytes", quant.fp32_bytes)
      .integer("v3_quantized_bytes", quant.quantized_bytes)
      .number("bytes_ratio",
              static_cast<double>(quant.fp32_bytes) /
                  static_cast<double>(quant.quantized_bytes),
              4)
      .number("fp32_load_seconds", quant.fp32_load_seconds, 6)
      .number("v3_load_seconds", quant.quantized_load_seconds, 6)
      .end_object();
  json.begin_object("detector_train_step")
      .string("widths", "42x16x5")
      .integer("frames", train_step.frames)
      .integer("cells_per_batch", train_step.cells_per_batch)
      .integer("steps", train_step.steps)
      .integer("reps", train_step.reps)
      .number("assemble_us", train_step.assemble_us, 2)
      .number("forward_us", train_step.forward_us, 2)
      .number("loss_us", train_step.loss_us, 2)
      .number("backward_us", train_step.backward_us, 2)
      .number("adam_us", train_step.adam_us, 2)
      .number("step_us", train_step.step_us, 2)
      .number("step_us_min", train_step.step_us_min, 2)
      .number("step_us_max", train_step.step_us_max, 2)
      .end_object();
  json.begin_object("kmeans_2000x48_k16")
      .number("seconds_scalar_1t", scalar_1t.kmeans.seconds, 6)
      .number("speedup", kmeans_speedup, 4)
      .boolean("identical_results", kmeans_identical)
      .boolean("identical_across_levels", kmeans_level_identical)
      .end_object();
  if (!bench::save_json("BENCH_micro.json", json)) return 1;

  const bool all_identical = matmul_identical && qgemm_identical &&
                             kmeans_identical && qgemm_level_identical &&
                             kmeans_level_identical;
  // Speedup floors only bind when a vector level is active: on a
  // scalar-only host every ratio is ~1 by construction.
  const bool speedups_ok =
      active == simd::Level::kScalar ||
      (matmul_speedup >= 2.5 && kmeans_speedup > 1.0);

  std::fprintf(stderr,
               "[bench_micro] simd %s: matmul %.2f -> %.2f GFLOP/s "
               "(%.2fx), qgemm int8 %.1fus -> %.1fus (%.2fx), kmeans "
               "%.3fs -> %.3fs (%.2fx), artifact fp32 %zuB/%.3fs vs int8 "
               "%zuB/%.3fs\n",
               simd::level_name(active), scalar_1t.matmul.gflops,
               active_4t.matmul.gflops, matmul_speedup,
               scalar_1t.qgemm.int8_us, active_4t.qgemm.int8_us,
               qgemm_speedup, scalar_1t.kmeans.seconds,
               active_4t.kmeans.seconds, kmeans_speedup, quant.fp32_bytes,
               quant.fp32_load_seconds, quant.quantized_bytes,
               quant.quantized_load_seconds);
  std::fprintf(stderr,
               "[bench_micro] detector train step (%zu cells, %zu steps): "
               "%.1f us = assemble %.1f + forward %.1f + loss %.1f + "
               "backward %.1f + adam %.1f (reps %.1f-%.1f us)\n",
               train_step.cells_per_batch, train_step.steps,
               train_step.step_us, train_step.assemble_us,
               train_step.forward_us, train_step.loss_us,
               train_step.backward_us, train_step.adam_us,
               train_step.step_us_min, train_step.step_us_max);
  std::fprintf(stderr, "[bench_micro] determinism %s, speedup floors %s\n",
               all_identical ? "OK" : "FAILED",
               speedups_ok ? "OK" : "FAILED");
  return (all_identical && speedups_ok) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--gbench") == 0) {
    // Shift out the --gbench flag so google-benchmark sees its own flags.
    for (int i = 1; i + 1 < argc; ++i) argv[i] = argv[i + 1];
    --argc;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return run_json_suite();
}
