// Overload-governor bench: the runtime governor under a canned overload
// (1% I/O latency spikes x8 plus memory-pressure halvings of the cache
// byte budget) on fig7-style fast-changing spliced clips. Compares
// governor-off vs governor-on at a 30 FPS deadline: deadline-overrun
// rate, dropped-frame rate, swap suppressions, ranking reuses, p95
// latency, and the F1 cost of shedding. Verifies the governor decision
// trace and the fault schedule replay bit-for-bit. Writes
// BENCH_governor.json in the working directory.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "detect/detection.hpp"
#include "core/governor.hpp"
#include "device/session.hpp"
#include "util/fault.hpp"

namespace {

constexpr const char* kOverloadSpec =
    "seed=2033,load_latency_spike=0.01x8,memory_pressure=0.003x2";

struct RunStats {
  double f1 = 0.0;
  double hit_rate = 0.0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  std::size_t frames = 0;
  std::size_t executed_frames = 0;
  std::size_t dropped_frames = 0;
  std::size_t deadline_overruns = 0;
  std::size_t swap_suppressed = 0;
  std::size_t reused_rankings = 0;
  std::size_t transitions = 0;
  std::size_t pressure_events = 0;
  std::size_t budget_evictions = 0;
  std::size_t oversized_rejections = 0;
  std::size_t latency_spikes = 0;
  std::uint64_t governor_hash = 0;
  std::uint64_t fault_hash = 0;

  double overrun_rate() const {
    return executed_frames == 0
               ? 0.0
               : static_cast<double>(deadline_overruns) /
                     static_cast<double>(executed_frames);
  }
  double drop_rate() const {
    return frames == 0 ? 0.0
                       : static_cast<double>(dropped_frames) /
                             static_cast<double>(frames);
  }
};

}  // namespace

int main() {
  using namespace anole;
  bench::print_banner("Overload governor",
                      "deadline-aware shedding + byte-budget cache under "
                      "I/O spikes and memory pressure");

  auto stack = bench::train_standard_stack();
  const auto spliced = bench::fast_changing_clips(stack.world, 4, 33);
  std::size_t total_frames = 0;
  for (const auto& clip : spliced) total_frames += clip.frames.size();
  std::fprintf(stderr, "[bench_governor] streaming %zu spliced frames\n",
               total_frames);

  const auto tx2 = device::DeviceProfile::jetson_tx2_nx(
      stack.system.repository.detector(0).flops_per_frame());
  const device::MemoryModel memory(
      stack.system.repository.detector(0).weight_bytes());
  // Byte budget: room for ~3 full compressed models (the slot capacity
  // stays at 5, so the byte budget binds first; a memory-pressure fault
  // halves it mid-run).
  std::uint64_t max_model_bytes = 0;
  for (std::size_t m = 0; m < stack.system.repository.size(); ++m) {
    max_model_bytes = std::max(
        max_model_bytes, stack.system.repository.detector(m).weight_bytes());
  }

  // One full pass under the overload spec: engine + simulated device,
  // with or without the governor closing the loop between them.
  const auto run = [&](bool governed) {
    auto faults =
        std::make_shared<fault::FaultInjector>(std::string(kOverloadSpec));
    core::RuntimeGovernor governor;
    core::EngineConfig config;
    config.cache = bench::standard_cache_config();
    config.cache.memory_budget_bytes = 3 * max_model_bytes;
    config.faults = faults;
    config.governor = governed ? &governor : nullptr;
    core::AnoleEngine engine(stack.system, config);
    device::DeviceSession session(tx2, 1.0, faults.get(),
                                  governed ? &governor : nullptr);
    detect::MatchCounts counts;
    for (const auto& clip : spliced) {
      for (const auto& frame : clip.frames) {
        const auto result = engine.process(frame);
        // A dropped frame detects nothing: its objects count as misses,
        // which is exactly the F1 price of shedding.
        counts += detect::match_detections(result.detections, frame.objects);
        if (result.health.frame_dropped) continue;
        (void)session.process(device::frame_cost(stack.system, result, memory,
                                                 bench::kDeadlineMs));
      }
    }
    RunStats stats;
    stats.f1 = counts.f1();
    stats.hit_rate = 1.0 - engine.cache().miss_rate();
    stats.mean_latency_ms = session.mean_latency_ms();
    stats.p95_latency_ms = session.p95_latency_ms();
    stats.frames = total_frames;
    stats.executed_frames = session.frames();
    stats.dropped_frames = engine.dropped_frames();
    stats.deadline_overruns = session.deadline_overruns();
    stats.swap_suppressed = engine.swap_suppressed_frames();
    stats.reused_rankings = engine.reused_ranking_frames();
    stats.transitions = governed ? governor.transitions() : 0;
    stats.pressure_events = engine.cache().pressure_events();
    stats.budget_evictions = engine.cache().budget_evictions();
    stats.oversized_rejections = engine.cache().oversized_rejections();
    stats.latency_spikes = session.latency_spikes();
    stats.governor_hash = governed ? governor.trace_hash() : 0;
    stats.fault_hash = faults->trace_hash();
    return stats;
  };

  const RunStats off = run(false);
  const RunStats on = run(true);
  const RunStats replay = run(true);
  const bool replay_identical =
      on.governor_hash == replay.governor_hash &&
      on.fault_hash == replay.fault_hash &&
      on.deadline_overruns == replay.deadline_overruns &&
      on.dropped_frames == replay.dropped_frames;

  TablePrinter table({"run", "F1", "overruns", "overrun rate", "dropped",
                      "suppressed", "reused", "p95 ms"});
  const auto add_row = [&table](const char* name, const RunStats& stats) {
    table.add_row({name, format_double(stats.f1, 3),
                   std::to_string(stats.deadline_overruns),
                   format_double(stats.overrun_rate(), 4),
                   std::to_string(stats.dropped_frames),
                   std::to_string(stats.swap_suppressed),
                   std::to_string(stats.reused_rankings),
                   format_double(stats.p95_latency_ms, 1)});
  };
  add_row("governor off", off);
  add_row("governor on", on);
  add_row("replay", replay);
  std::printf("%s", table.to_string().c_str());

  const double reduction =
      on.deadline_overruns == 0
          ? static_cast<double>(off.deadline_overruns)
          : static_cast<double>(off.deadline_overruns) /
                static_cast<double>(on.deadline_overruns);
  const bool overruns_reduced =
      on.deadline_overruns * 3 <= off.deadline_overruns;
  const bool drops_bounded = on.drop_rate() <= 0.05;
  std::printf(
      "overload spec \"%s\": %zu latency spikes, %zu pressure events, "
      "%zu budget evictions (governor on)\n",
      kOverloadSpec, on.latency_spikes, on.pressure_events,
      on.budget_evictions);
  std::printf("overrun reduction: %.1fx (need >= 3x): %s\n", reduction,
              overruns_reduced ? "ok" : "FAIL");
  std::printf("dropped frames: %.2f%% (need <= 5%%): %s\n",
              100.0 * on.drop_rate(), drops_bounded ? "ok" : "FAIL");
  std::printf("F1 cost of governing: %.4f (off %.4f -> on %.4f)\n",
              off.f1 - on.f1, off.f1, on.f1);
  std::printf("governor trace + fault schedule replay identical: %s\n",
              replay_identical ? "yes" : "NO (determinism regression!)");

  JsonWriter json;
  bench::write_provenance(json);
  json.integer("frames", total_frames)
      .string("overload_spec", kOverloadSpec)
      .number("deadline_ms", bench::kDeadlineMs, 1)
      .integer("memory_budget_bytes", 3 * max_model_bytes)
      .boolean("replay_identical", replay_identical)
      .number("overrun_reduction", reduction, 2)
      .boolean("overruns_reduced_3x", overruns_reduced)
      .boolean("drops_within_5pct", drops_bounded)
      .number("f1_delta", on.f1 - off.f1, 4);
  const auto emit = [&json](const char* name, const RunStats& stats) {
    json.begin_object(name)
        .number("f1", stats.f1, 4)
        .number("hit_rate", stats.hit_rate, 4)
        .number("mean_latency_ms", stats.mean_latency_ms, 3)
        .number("p95_latency_ms", stats.p95_latency_ms, 3)
        .integer("executed_frames", stats.executed_frames)
        .integer("dropped_frames", stats.dropped_frames)
        .number("dropped_frame_rate", stats.drop_rate(), 4)
        .integer("deadline_overruns", stats.deadline_overruns)
        .number("overrun_rate", stats.overrun_rate(), 4)
        .integer("swap_suppressed", stats.swap_suppressed)
        .integer("reused_rankings", stats.reused_rankings)
        .integer("transitions", stats.transitions)
        .integer("pressure_events", stats.pressure_events)
        .integer("budget_evictions", stats.budget_evictions)
        .integer("oversized_rejections", stats.oversized_rejections)
        .integer("latency_spikes", stats.latency_spikes)
        .hash("governor_trace_hash", stats.governor_hash)
        .hash("fault_trace_hash", stats.fault_hash)
        .end_object();
  };
  emit("governor_off", off);
  emit("governor_on", on);
  emit("replay", replay);
  if (!bench::save_json("BENCH_governor.json", json)) return 1;
  return (replay_identical && overruns_reduced && drops_bounded) ? 0 : 1;
}
