// Fig. 10 (real-world experiment stand-in): seven fresh driving scenarios
// with different road conditions and times of day are generated and
// streamed through every method, replaying the UAV/vehicle field test.
// The simulated TX2 NX end-to-end latency of Anole is reported alongside
// (paper: Anole wins every scenario at < 20 ms on TX2 NX).
#include "bench/common.hpp"
#include "device/session.hpp"
#include "util/stats.hpp"

int main() {
  using namespace anole;
  bench::print_banner("Figure 10", "seven fresh driving scenarios (field test)");

  auto stack = bench::train_standard_stack();
  auto methods = bench::train_all_methods(stack);

  // Seven scenarios mirroring the paper's Shanghai drives: different road
  // types and times of day, freshly generated (never part of training).
  const std::vector<world::SceneAttributes> scenarios = {
      {world::Weather::kClear, world::Location::kUrban,
       world::TimeOfDay::kDaytime},
      {world::Weather::kClear, world::Location::kHighway,
       world::TimeOfDay::kDaytime},
      {world::Weather::kClear, world::Location::kUrban,
       world::TimeOfDay::kNight},
      {world::Weather::kRainy, world::Location::kUrban,
       world::TimeOfDay::kDaytime},
      {world::Weather::kClear, world::Location::kTunnel,
       world::TimeOfDay::kDaytime},
      {world::Weather::kClear, world::Location::kHighway,
       world::TimeOfDay::kNight},
      {world::Weather::kClear, world::Location::kResidential,
       world::TimeOfDay::kDawnDusk},
  };

  world::ClipGenerator generator(stack.world.config.grid_size);
  Rng rng(33);
  std::vector<world::Clip> clips;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    world::ClipSpec spec;
    spec.attributes = scenarios[s];
    spec.length = 80;
    // A field test drives the same city the stack was profiled for, so the
    // fresh scenarios are new recordings of near-canonical scene styles.
    spec.style_variation = 0.2;
    spec.style_seed = 4242 + s;
    spec.clip_id = 1000 + s;
    clips.push_back(generator.generate(spec, rng));
  }

  std::vector<std::string> header = {"Method"};
  for (const auto& attrs : scenarios) header.push_back(attrs.short_label());
  header.push_back("Mean");
  TablePrinter table(std::move(header));
  for (auto* method : methods.all()) {
    std::vector<std::string> row = {method->name()};
    double sum = 0.0;
    for (const auto& clip : clips) {
      std::vector<const world::Frame*> frames;
      for (const auto& frame : clip.frames) frames.push_back(&frame);
      const double f1 = eval::overall_f1(bench::infer_fn(*method), frames);
      row.push_back(format_double(f1, 3));
      sum += f1;
    }
    row.push_back(format_double(sum / static_cast<double>(clips.size()), 3));
    table.add_row(std::move(row));
  }
  std::printf("%s", table.to_string().c_str());

  // Simulated TX2 NX latency of Anole over one scenario stream.
  const auto tx2 = device::DeviceProfile::jetson_tx2_nx(
      methods.anole->detector_flops());
  const device::MemoryModel memory(
      stack.system.repository.detector(0).weight_bytes());
  core::AnoleEngine engine(stack.system, bench::standard_cache_config());
  device::DeviceSession session(tx2);
  for (const auto& frame : clips[0].frames) {
    const auto result = engine.process(frame);
    session.process(device::frame_cost(stack.system, result, memory,
                                       /*deadline_ms=*/0.0));
  }
  const auto& latencies = session.frame_latencies_ms();
  std::vector<double> steady(latencies.begin() + 1, latencies.end());
  std::printf("\nAnole on TX2 NX (simulated): steady-state %.1f ms/frame "
              "(paper: < 20 ms), first frame %.0f ms (load + init)\n",
              mean(steady), latencies.front());
  return 0;
}
