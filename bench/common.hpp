// Shared setup for the benchmark harness: the standard evaluation world
// (the paper's 64-clip KITTI/BDD/SHD mix, scaled to run on one core in a
// few minutes), the standard offline-profiling configuration, and trained
// baseline bundles. Every bench that needs a trained stack builds it
// through these helpers so results are comparable across benches. Every
// BENCH_*.json file starts with write_provenance's record of the build
// and host that produced it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>  // environ, sysconf

#include "baselines/methods.hpp"
#include "core/profiler.hpp"
#include "eval/f1_series.hpp"
#include "tensor/simd.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace anole::bench {

/// Standard evaluation world: ~2700 frames across 24 seen + 6 unseen clips
/// (the paper's dataset mix at 40% clip count; same 9:1 seen:unseen and
/// 6:2:2 frame splits).
inline world::WorldConfig standard_world_config() {
  world::WorldConfig config;
  config.frames_per_clip = 90;
  config.clip_scale = 0.4;
  config.seed = 1234;
  return config;
}

/// Standard OSP configuration: n = 19 compressed models as in the paper.
inline core::ProfilerConfig standard_profiler_config() {
  core::ProfilerConfig config;
  config.repository.target_models = 19;
  config.sampling.budget = 1200;
  return config;
}

/// The 30 FPS frame budget the serving benches bill deadlines against.
inline constexpr double kDeadlineMs = 33.3;

inline core::CacheConfig standard_cache_config() {
  core::CacheConfig config;
  config.capacity = 5;
  config.policy = core::EvictionPolicy::kLfu;
  return config;
}

/// A fully trained Anole stack on the standard world.
struct TrainedStack {
  world::World world;
  core::AnoleSystem system;
  core::ProfilerReport report;
};

inline TrainedStack train_standard_stack(std::uint64_t seed = 7) {
  TrainedStack stack;
  std::fprintf(stderr, "[bench] generating standard world...\n");
  stack.world = world::make_benchmark_world(standard_world_config());
  std::fprintf(stderr, "[bench] running offline scene profiling (%zu frames)...\n",
               stack.world.total_frames());
  Rng rng(seed);
  core::OfflineProfiler profiler(standard_profiler_config());
  stack.system = profiler.run(stack.world, rng, &stack.report);
  std::fprintf(stderr, "[bench] profiled: %zu compressed models, %zu ASS samples\n",
               stack.report.models_trained, stack.report.decision_samples);
  return stack;
}

/// All candidate methods of the paper's section VI-A3, trained on the
/// stack's world. The Anole adapter shares the stack's system.
struct MethodBundle {
  std::unique_ptr<baselines::AnoleMethod> anole;
  std::unique_ptr<baselines::SingleModelMethod> sdm;
  std::unique_ptr<baselines::SingleModelMethod> ssm;
  std::unique_ptr<baselines::CdgMethod> cdg;
  std::unique_ptr<baselines::DmmMethod> dmm;

  std::vector<baselines::InferenceMethod*> all() const {
    return {sdm.get(), ssm.get(), cdg.get(), dmm.get(), anole.get()};
  }
};

inline MethodBundle train_all_methods(TrainedStack& stack,
                                      std::uint64_t seed = 11) {
  MethodBundle bundle;
  Rng rng(seed);
  baselines::BaselineConfig config;
  std::fprintf(stderr, "[bench] training SDM baseline...\n");
  bundle.sdm = baselines::train_sdm(stack.world, config, rng);
  std::fprintf(stderr, "[bench] training SSM baseline...\n");
  bundle.ssm = baselines::train_ssm(stack.world, config, rng);
  std::fprintf(stderr, "[bench] training CDG baseline...\n");
  bundle.cdg = baselines::train_cdg(stack.world, config, rng);
  std::fprintf(stderr, "[bench] training DMM baseline...\n");
  bundle.dmm = baselines::train_dmm(stack.world, config, rng);
  bundle.anole = std::make_unique<baselines::AnoleMethod>(
      stack.system, standard_cache_config());
  return bundle;
}

/// `count` fast-changing clips (5 scene segments of 100 frames each, the
/// Fig. 7 T1-T6 shape) spliced from `world` by one seeded stream.
inline std::vector<world::Clip> fast_changing_clips(const world::World& world,
                                                    int count,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<world::Clip> clips;
  for (int t = 0; t < count; ++t) {
    clips.push_back(world::synthesize_fast_changing_clip(world, 5, 100, rng));
  }
  return clips;
}

/// Wall seconds since `start` (host time, for the timing benches).
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Bound InferFn for the shared evaluation helpers.
inline eval::InferFn infer_fn(baselines::InferenceMethod& method) {
  return [&method](const world::Frame& frame) { return method.infer(frame); };
}

/// Prints a section banner so the combined bench output reads like the
/// paper's evaluation section.
inline void print_banner(const char* experiment, const char* description) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", experiment, description);
  std::printf("==============================================================\n");
}

/// Every ANOLE_* variable set in this process's environment, sorted by
/// name: the knobs that could have shaped the numbers.
inline std::vector<std::pair<std::string, std::string>> anole_environment() {
  std::vector<std::pair<std::string, std::string>> vars;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view var(*entry);
    if (!var.starts_with("ANOLE_")) continue;
    const std::size_t eq = var.find('=');
    vars.emplace_back(std::string(var.substr(0, eq)),
                      eq == std::string_view::npos
                          ? std::string()
                          : std::string(var.substr(eq + 1)));
  }
  std::sort(vars.begin(), vars.end());
  return vars;
}

/// Writes the `provenance` object: the configure-time commit (`-dirty`
/// when the tree differed from HEAD), the online CPU count, the
/// detected and active SIMD levels, the pool thread count and build type
/// at the time of the call, and every ANOLE_* variable set.
inline void write_provenance(JsonWriter& json) {
  json.begin_object("provenance")
      .string("commit", ANOLE_BENCH_COMMIT)
      .integer("nproc", static_cast<std::uint64_t>(
                            sysconf(_SC_NPROCESSORS_ONLN)))
      .string("simd_detected", simd::level_name(simd::detected_level()))
      .string("simd_active", simd::level_name(simd::active_level()))
      .integer("pool_threads", par::thread_count())
      .string("build_type", ANOLE_BENCH_BUILD_TYPE)
      .begin_object("anole_env");
  for (const auto& [name, value] : anole_environment()) {
    json.string(name, value);
  }
  json.end_object().end_object();
}

/// Finishes `json` and writes it to `path` in the working directory;
/// prints the failure and returns false when the file cannot be written.
inline bool save_json(const char* path, JsonWriter& json) {
  const std::string text = json.finish();
  std::FILE* out = std::fopen(path, "w");
  bool ok = out != nullptr;
  if (ok) {
    ok = std::fwrite(text.data(), 1, text.size(), out) == text.size();
    ok = std::fclose(out) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path);
    return false;
  }
  std::printf("wrote %s\n", path);
  return true;
}

}  // namespace anole::bench
