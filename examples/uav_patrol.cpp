// UAV patrol: the paper's field-test scenario as a library walkthrough.
//
// A UAV flies a patrol route that crosses several scenes (urban daytime ->
// highway -> tunnel -> urban night). The example trains an Anole stack,
// streams the patrol through the online engine with an LFU model cache,
// and replays the same stream on the simulated Jetson TX2 NX to report
// end-to-end latency and energy — the numbers a deployment would care
// about.
//
// Run: ./build/examples/uav_patrol
#include <cstdio>

#include "core/profiler.hpp"
#include "device/session.hpp"
#include "eval/f1_series.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace anole;
  set_log_level(LogLevel::kWarn);
  Rng rng(42);

  // --- offline: train the stack on the benchmark corpus ---
  world::WorldConfig world_config;
  world_config.frames_per_clip = 80;
  world_config.clip_scale = 0.3;
  world_config.seed = 2024;
  std::printf("training Anole stack (offline scene profiling)...\n");
  const world::World corpus = world::make_benchmark_world(world_config);
  core::ProfilerConfig profiler_config;
  profiler_config.repository.target_models = 14;
  profiler_config.sampling.budget = 800;
  core::OfflineProfiler profiler(profiler_config);
  core::AnoleSystem system = profiler.run(corpus, rng);
  std::printf("repository: %zu compressed models\n\n", system.model_count());

  // --- the patrol route: four legs in different scenes ---
  const std::vector<world::SceneAttributes> route = {
      {world::Weather::kClear, world::Location::kUrban,
       world::TimeOfDay::kDaytime},
      {world::Weather::kClear, world::Location::kHighway,
       world::TimeOfDay::kDaytime},
      {world::Weather::kClear, world::Location::kTunnel,
       world::TimeOfDay::kDaytime},
      {world::Weather::kClear, world::Location::kUrban,
       world::TimeOfDay::kNight},
  };
  world::ClipGenerator generator(world_config.grid_size);
  std::vector<world::Clip> legs;
  for (std::size_t i = 0; i < route.size(); ++i) {
    world::ClipSpec spec;
    spec.attributes = route[i];
    spec.length = 60;
    spec.style_seed = 777 + i;
    spec.clip_id = 100 + i;
    legs.push_back(generator.generate(spec, rng));
  }

  // --- online: stream the route through the engine + device simulator ---
  core::CacheConfig cache_config;
  cache_config.capacity = 4;
  core::AnoleEngine engine(system, cache_config);
  const auto tx2 = device::DeviceProfile::jetson_tx2_nx(
      system.repository.detector(0).flops_per_frame());
  const device::MemoryModel memory(
      system.repository.detector(0).weight_bytes());
  device::DeviceSession session(tx2);

  TablePrinter table({"leg", "scene", "F1", "switches", "mean ms", "max ms"});
  double total_energy_j = 0.0;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    detect::MatchCounts counts;
    std::vector<double> leg_latency;
    const std::size_t switches_before = engine.model_switches();
    for (const auto& frame : legs[i].frames) {
      const auto result = engine.process(frame);
      counts += detect::match_detections(result.detections, frame.objects);
      const device::FrameCost cost =
          device::frame_cost(system, result, memory, /*deadline_ms=*/0.0);
      leg_latency.push_back(session.process(cost));
      total_energy_j += tx2.power_watts(cost.detector_flops, 30.0,
                                        tx2.power_modes.back()) /
                        30.0;
    }
    table.add_row({std::to_string(i + 1), legs[i].attributes.label(),
                   format_double(counts.f1(), 3),
                   std::to_string(engine.model_switches() - switches_before),
                   format_double(mean(leg_latency), 1),
                   format_double(max_value(leg_latency), 0)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\ncache: %zu lookups, miss rate %.3f, resident models:",
              engine.cache().lookups(), engine.cache().miss_rate());
  for (std::size_t model : engine.cache().resident_models()) {
    std::printf(" %s", system.repository.model(model).name.c_str());
  }
  std::printf("\nestimated energy for the patrol: %.0f J at 30 FPS on TX2 NX\n",
              total_energy_j);
  std::printf("note the max-ms column: legs that enter a new scene pay a "
              "one-time model load.\n");
  return 0;
}
