// Micro-benchmarks of the hot paths.
//
// Default mode runs a deterministic timing suite over the SIMD and
// kernel layers — matmul GFLOP/s, int8 qgemm vs fp32 matmul at a
// detector layer shape (with the int8 call split into its quantize and
// dot stages), per-frame featurization, k-means wall time, and one
// detector training step split into its phases, alone and with one
// trainer per pool thread. Kernels are timed against a pinned scalar
// 1-thread reference (the headline "speedup" is the active dispatch level
// at 4 pool threads vs that reference; for the 512 matmul the two sides
// run interleaved and the file holds the median and range). The
// suite verifies bitwise thread-count invariance at 1/2/4 threads, plus
// bitwise *level* invariance for the int8 and k-means paths, then times
// the post-training quantize/dequantize pass and fp32 vs int8-quantized
// artifact loads on a system trained by one untimed OSP run, and writes
// the numbers after their provenance (bench::write_provenance) to
// BENCH_micro.json in the working directory. Exit is non-zero on a
// determinism failure or — when a vector level is active — on a median
// speedup below the committed floors. OSP and engine-batch wall time are
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
#include <string_view>
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

/// Median and range of repeated measurements.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  Spread spread;
  if (n == 0) return spread;
  spread.median = n % 2 == 1 ? values[n / 2]
                             : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  spread.min = values.front();
  spread.max = values.back();
  return spread;
}

/// Writes `key: {median, min, max}`.
void write_spread(JsonWriter& json, std::string_view key, const Spread& s,
                  int decimals) {
  json.begin_object(key)
      .number("median", s.median, decimals)
      .number("min", s.min, decimals)
      .number("max", s.max, decimals)
      .end_object();
}

/// The 512x512 operands every matmul measurement multiplies.
struct MatmulOperands {
  Tensor a;
  Tensor b;
};

MatmulOperands matmul_operands(std::size_t n) {
  Rng rng(21);
  MatmulOperands ops{Tensor::matrix(n, n), Tensor::matrix(n, n)};
  for (auto& v : ops.a.data()) v = static_cast<float>(rng.normal());
  for (auto& v : ops.b.data()) v = static_cast<float>(rng.normal());
  return ops;
}

/// GFLOP/s of one timed matmul of the operands.
double matmul_gflops(const MatmulOperands& ops) {
  const auto start = std::chrono::steady_clock::now();
  Tensor c = matmul(ops.a, ops.b);
  const double seconds = bench::seconds_since(start);
  benchmark::DoNotOptimize(c.data().data());
  const double n = static_cast<double>(ops.a.rows());
  return 2.0 * n * n * n / seconds / 1e9;
}

/// The 512 matmul's scalar 1-thread reference and the active level at
/// `threads` pool threads, timed in `reps` interleaved pairs so that a
/// slow spell of the host lands on both sides: the speedup is taken per
/// pair, and each figure is reported as median and range.
struct MatmulTiming {
  std::size_t reps = 0;
  Spread gflops_scalar_1t;
  Spread gflops_active;
  Spread speedup;
};

MatmulTiming time_matmul_interleaved(std::size_t threads, std::size_t reps) {
  const MatmulOperands ops = matmul_operands(512);
  std::vector<double> scalar;
  std::vector<double> active;
  std::vector<double> speedup;
  for (std::size_t r = 0; r < reps; ++r) {
    simd::set_level(simd::Level::kScalar);
    par::set_thread_count(1);
    scalar.push_back(matmul_gflops(ops));
    simd::reset_level();
    par::set_thread_count(threads);
    active.push_back(matmul_gflops(ops));
    speedup.push_back(active.back() / scalar.back());
  }
  par::set_thread_count(0);
  MatmulTiming timing;
  timing.reps = reps;
  timing.gflops_scalar_1t = spread_of(scalar);
  timing.gflops_active = spread_of(active);
  timing.speedup = spread_of(speedup);
  return timing;
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
/// cell) on 8-frame batches. Each step is train_detector's own
/// (stack_batch over the compact frame cache, forward, detector_loss,
/// parameter-only backward, Adam) with a clock read between phases, so
/// one run's five phases add up to its step. A run reports each phase's
/// mean per step.
struct TrainStepRun {
  std::size_t steps = 0;
  std::size_t cells_per_batch = 0;
  double phase_us[5] = {};
  double step_us = 0.0;
};

constexpr const char* kTrainPhases[5] = {"assemble_us", "forward_us",
                                         "loss_us", "backward_us", "adam_us"};

TrainStepRun time_train_one(const std::vector<const world::Frame*>& frames,
                            std::size_t epochs) {
  using Clock = std::chrono::steady_clock;
  const detect::DetectorTrainConfig config;
  Rng rng(31);
  detect::GridDetector detector(detect::GridDetectorConfig::compressed(),
                                rng);
  nn::Sequential& net = detector.network();
  net.set_training(true);
  nn::Adam optimizer(net.parameters(), config.learning_rate, 0.9, 0.999,
                     1e-8, config.weight_decay);
  std::vector<detect::CompactFrame> cache;
  cache.reserve(frames.size());
  for (const world::Frame* frame : frames) {
    cache.push_back(detect::compact_frame(*frame));
  }
  Clock::duration phase[5] = {};
  TrainStepRun run;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const std::vector<std::size_t> order =
        random_permutation(frames.size(), rng);
    for (std::size_t start = 0; start < order.size();
         start += config.frames_per_batch) {
      const std::size_t count =
          std::min(config.frames_per_batch, order.size() - start);
      const Clock::time_point t0 = Clock::now();
      detect::DetectorBatch batch = detect::stack_batch(
          cache, std::span<const std::size_t>(order).subspan(start, count));
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
      if (start == 0) run.cells_per_batch = outputs.rows();
      ++run.steps;
    }
  }
  for (int p = 0; p < 5; ++p) {
    run.phase_us[p] = std::chrono::duration<double, std::micro>(phase[p])
                          .count() /
                      static_cast<double>(run.steps);
    run.step_us += run.phase_us[p];
  }
  return run;
}

/// Per-phase median and range over a set of runs of one shape.
struct TrainStepSample {
  std::size_t runs = 0;
  std::size_t trainers = 1;
  std::size_t frames = 0;
  std::size_t steps = 0;
  std::size_t cells_per_batch = 0;
  Spread phase_us[5];
  Spread step_us;
};

TrainStepSample summarize_train_runs(const std::vector<TrainStepRun>& runs,
                                     std::size_t frames,
                                     std::size_t trainers) {
  TrainStepSample sample;
  sample.runs = runs.size();
  sample.trainers = trainers;
  sample.frames = frames;
  sample.steps = runs.front().steps;
  sample.cells_per_batch = runs.front().cells_per_batch;
  for (int p = 0; p < 5; ++p) {
    std::vector<double> values;
    for (const TrainStepRun& run : runs) values.push_back(run.phase_us[p]);
    sample.phase_us[p] = spread_of(values);
  }
  std::vector<double> steps;
  for (const TrainStepRun& run : runs) steps.push_back(run.step_us);
  sample.step_us = spread_of(steps);
  return sample;
}

std::vector<const world::Frame*> train_frames(const world::World& world,
                                              std::size_t frame_count) {
  std::vector<const world::Frame*> frames =
      world.frames_with_role(world::SplitRole::kTrain);
  frames.resize(std::min(frames.size(), frame_count));
  return frames;
}

/// `reps` fresh trainings from one seed, one after another on the calling
/// thread (as a lone candidate trains on one pool worker).
TrainStepSample time_detector_train_step(const world::World& world,
                                         std::size_t frame_count,
                                         std::size_t epochs,
                                         std::size_t reps) {
  const auto frames = train_frames(world, frame_count);
  std::vector<TrainStepRun> runs;
  for (std::size_t r = 0; r < reps; ++r) {
    runs.push_back(time_train_one(frames, epochs));
  }
  return summarize_train_runs(runs, frames.size(), 1);
}

/// The same trainings under Algorithm 1's load: each rep runs one trainer
/// per pool thread through par::parallel_for, as the repository trains
/// its candidates, each with its own frame cache.
TrainStepSample time_loaded_train_step(const world::World& world,
                                       std::size_t frame_count,
                                       std::size_t epochs, std::size_t reps) {
  const auto frames = train_frames(world, frame_count);
  const std::size_t trainers = par::thread_count();
  std::vector<TrainStepRun> runs(reps * trainers);
  for (std::size_t r = 0; r < reps; ++r) {
    par::parallel_for(0, trainers, 1, [&](std::size_t t) {
      runs[r * trainers + t] = time_train_one(frames, epochs);
    });
  }
  return summarize_train_runs(runs, frames.size(), trainers);
}

void write_train_step(JsonWriter& json, std::string_view key,
                      const TrainStepSample& sample) {
  json.begin_object(key)
      .string("widths", "42x16x5")
      .integer("frames", sample.frames)
      .integer("cells_per_batch", sample.cells_per_batch)
      .integer("steps", sample.steps)
      .integer("trainers", sample.trainers)
      .integer("runs", sample.runs);
  for (int p = 0; p < 5; ++p) {
    write_spread(json, kTrainPhases[p], sample.phase_us[p], 2);
  }
  write_spread(json, "step_us", sample.step_us, 2);
  json.end_object();
}

void print_train_step(const char* label, const TrainStepSample& sample) {
  std::fprintf(stderr,
               "[bench_micro] detector train step, %s (%zu trainer(s), %zu "
               "cells, %zu steps, median of %zu runs): %.1f us; assemble "
               "%.1f, forward %.1f, loss %.1f, backward %.1f, adam %.1f "
               "(steps %.1f-%.1f us)\n",
               label, sample.trainers, sample.cells_per_batch, sample.steps,
               sample.runs, sample.step_us.median, sample.phase_us[0].median,
               sample.phase_us[1].median, sample.phase_us[2].median,
               sample.phase_us[3].median, sample.phase_us[4].median,
               sample.step_us.min, sample.step_us.max);
}

/// One qgemm+kmeans measurement at the current dispatch level and pool
/// thread count, plus the 512 matmul's product checksum for the
/// thread-count comparison (its timing is time_matmul_interleaved's).
struct KernelSet {
  float matmul_checksum = 0.0f;
  GemmSample qgemm;
  KMeansSample kmeans;
};

KernelSet run_kernels(std::size_t m, std::size_t k, std::size_t n) {
  KernelSet set;
  const MatmulOperands ops = matmul_operands(512);
  set.matmul_checksum = matmul(ops.a, ops.b).sum();
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
  // the calling thread, for 6x the default epochs (the cap a small
  // cluster's training set is scaled to); then one candidate per pool
  // thread at once.
  std::fprintf(stderr, "[bench_micro] detector training step phases...\n");
  const detect::DetectorTrainConfig defaults;
  const TrainStepSample train_step = time_detector_train_step(
      osp.world, 216, 6 * defaults.epochs, 5);
  const TrainStepSample loaded_step =
      time_loaded_train_step(osp.world, 810, defaults.epochs, 3);
  par::set_thread_count(0);

  // The 512 matmul, scalar 1-thread reference and active level
  // interleaved.
  const MatmulTiming matmul_timing =
      time_matmul_interleaved(kBenchThreads, 9);

  // Bitwise thread-count invariance at the active level (1 vs 2 vs 4).
  const bool matmul_identical =
      std::memcmp(&active_1t.matmul_checksum, &active_2t.matmul_checksum,
                  sizeof(float)) == 0 &&
      std::memcmp(&active_1t.matmul_checksum, &active_4t.matmul_checksum,
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
  // reference (the matmul's as the median of its interleaved pairs).
  const double matmul_speedup = matmul_timing.speedup.median;
  const double qgemm_speedup =
      scalar_1t.qgemm.int8_us / active_4t.qgemm.int8_us;
  const double kmeans_speedup =
      scalar_1t.kmeans.seconds / active_4t.kmeans.seconds;

  json.begin_object("matmul_512").integer("reps", matmul_timing.reps);
  write_spread(json, "gflops_scalar_1t", matmul_timing.gflops_scalar_1t, 4);
  write_spread(json, "gflops_active", matmul_timing.gflops_active, 4);
  write_spread(json, "speedup", matmul_timing.speedup, 4);
  json.boolean("identical_results", matmul_identical).end_object();
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
  write_train_step(json, "detector_train_step", train_step);
  write_train_step(json, "detector_train_step_loaded", loaded_step);
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
               "(median %.2fx, %.2f-%.2fx over %zu pairs), qgemm int8 "
               "%.1fus -> %.1fus (%.2fx), kmeans %.3fs -> %.3fs (%.2fx), "
               "artifact fp32 %zuB/%.3fs vs int8 %zuB/%.3fs\n",
               simd::level_name(active), matmul_timing.gflops_scalar_1t.median,
               matmul_timing.gflops_active.median, matmul_speedup,
               matmul_timing.speedup.min, matmul_timing.speedup.max,
               matmul_timing.reps,
               scalar_1t.qgemm.int8_us, active_4t.qgemm.int8_us,
               qgemm_speedup, scalar_1t.kmeans.seconds,
               active_4t.kmeans.seconds, kmeans_speedup, quant.fp32_bytes,
               quant.fp32_load_seconds, quant.quantized_bytes,
               quant.quantized_load_seconds);
  print_train_step("alone", train_step);
  print_train_step("loaded", loaded_step);
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
