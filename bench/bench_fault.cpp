// Fault-tolerance bench: the degradation ladder under a 1% model-load
// failure rate (plus injected I/O latency spikes) versus a clean run, on
// fig7-style fast-changing spliced clips. Reports cache hit rate, F1,
// mean/p95 simulated TX2 NX latency, deadline overruns at 30 FPS, and the
// ladder's health counters, and verifies the fault schedule replays
// bit-for-bit. Writes BENCH_fault.json in the working directory.
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "detect/detection.hpp"
#include "device/session.hpp"
#include "util/fault.hpp"

namespace {

constexpr const char* kFaultSpec =
    "seed=2024,model_load=0.01,load_latency_spike=0.02x25";

struct RunStats {
  double f1 = 0.0;
  double hit_rate = 0.0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  std::size_t deadline_overruns = 0;
  std::size_t load_failures = 0;
  std::size_t abandoned_loads = 0;
  std::size_t quarantine_events = 0;
  std::size_t degraded_frames = 0;
  std::size_t latency_spikes = 0;
  std::uint64_t injected_total = 0;
  std::uint64_t trace_hash = 0;
};

}  // namespace

int main() {
  using namespace anole;
  bench::print_banner("Fault tolerance",
                      "degradation ladder: 1% load failures vs clean");

  auto stack = bench::train_standard_stack();
  const auto spliced = bench::fast_changing_clips(stack.world, 4, 21);
  std::size_t total_frames = 0;
  for (const auto& clip : spliced) total_frames += clip.frames.size();
  std::fprintf(stderr, "[bench_fault] streaming %zu spliced frames\n",
               total_frames);

  const auto tx2 = device::DeviceProfile::jetson_tx2_nx(
      stack.system.repository.detector(0).flops_per_frame());
  const device::MemoryModel memory(
      stack.system.repository.detector(0).weight_bytes());

  // One full pass: engine + simulated device, driven by `faults`. An
  // unarmed injector gives the clean baseline (and keeps the run immune
  // to any ambient ANOLE_FAULTS).
  const auto run = [&](const std::shared_ptr<fault::FaultInjector>& faults) {
    core::EngineConfig config;
    config.cache = bench::standard_cache_config();
    config.faults = faults;
    core::AnoleEngine engine(stack.system, config);
    device::DeviceSession session(tx2, 1.0, faults.get());
    detect::MatchCounts counts;
    for (const auto& clip : spliced) {
      for (const auto& frame : clip.frames) {
        const auto result = engine.process(frame);
        counts += detect::match_detections(result.detections, frame.objects);
        (void)session.process(device::frame_cost(stack.system, result, memory,
                                                 bench::kDeadlineMs));
      }
    }
    RunStats stats;
    stats.f1 = counts.f1();
    stats.hit_rate = 1.0 - engine.cache().miss_rate();
    stats.mean_latency_ms = session.mean_latency_ms();
    stats.p95_latency_ms = session.p95_latency_ms();
    stats.deadline_overruns = session.deadline_overruns();
    stats.load_failures = engine.cache().load_failures();
    stats.abandoned_loads = engine.cache().abandoned_loads();
    stats.quarantine_events = engine.cache().quarantine_events();
    stats.degraded_frames = engine.degraded_frames();
    stats.latency_spikes = session.latency_spikes();
    stats.injected_total = engine.faults()->injected_total();
    stats.trace_hash = engine.faults()->trace_hash();
    return stats;
  };

  const RunStats clean = run(std::make_shared<fault::FaultInjector>());
  const RunStats faulty =
      run(std::make_shared<fault::FaultInjector>(std::string(kFaultSpec)));
  // Replay: an identical spec must reproduce the schedule bit-for-bit.
  const RunStats replay =
      run(std::make_shared<fault::FaultInjector>(std::string(kFaultSpec)));
  const bool replay_identical = faulty.trace_hash == replay.trace_hash;

  TablePrinter table({"run", "F1", "hit rate", "mean ms", "p95 ms",
                      "overruns", "load fails", "degraded"});
  const auto add_row = [&table](const char* name, const RunStats& stats) {
    table.add_row({name, format_double(stats.f1, 3),
                   format_double(stats.hit_rate, 3),
                   format_double(stats.mean_latency_ms, 1),
                   format_double(stats.p95_latency_ms, 1),
                   std::to_string(stats.deadline_overruns),
                   std::to_string(stats.load_failures),
                   std::to_string(stats.degraded_frames)});
  };
  add_row("clean", clean);
  add_row("faulty", faulty);
  add_row("replay", replay);
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "faulty: %llu injected events (spec \"%s\"), %zu abandoned loads, "
      "%zu quarantines, %zu latency spikes\n",
      static_cast<unsigned long long>(faulty.injected_total), kFaultSpec,
      faulty.abandoned_loads, faulty.quarantine_events,
      faulty.latency_spikes);
  std::printf("fault schedule replay identical: %s\n",
              replay_identical ? "yes" : "NO (determinism regression!)");
  std::printf("expected shape: F1 and hit rate within noise of clean; "
              "latency tail absorbs the retries and spikes.\n");

  JsonWriter json;
  bench::write_provenance(json);
  json.integer("frames", total_frames)
      .string("fault_spec", kFaultSpec)
      .number("deadline_ms", bench::kDeadlineMs, 1)
      .boolean("replay_identical", replay_identical);
  const auto emit = [&json](const char* name, const RunStats& stats) {
    json.begin_object(name)
        .number("f1", stats.f1, 4)
        .number("hit_rate", stats.hit_rate, 4)
        .number("mean_latency_ms", stats.mean_latency_ms, 3)
        .number("p95_latency_ms", stats.p95_latency_ms, 3)
        .integer("deadline_overruns", stats.deadline_overruns)
        .integer("load_failures", stats.load_failures)
        .integer("abandoned_loads", stats.abandoned_loads)
        .integer("quarantine_events", stats.quarantine_events)
        .integer("degraded_frames", stats.degraded_frames)
        .integer("injected_total", stats.injected_total)
        .hash("trace_hash", stats.trace_hash)
        .end_object();
  };
  emit("clean", clean);
  emit("faulty", faulty);
  emit("replay", replay);
  if (!bench::save_json("BENCH_fault.json", json)) return 1;
  return replay_identical ? 0 : 1;
}
