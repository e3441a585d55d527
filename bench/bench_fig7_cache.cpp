// Fig. 7 on the six synthesized fast-changing clips T1-T6:
// (a) scene-duration boxplot measured as frames between model switches;
// (b) cache miss rate and F1 as functions of cache size, plus an
// LFU/LRU/FIFO eviction-policy ablation (DESIGN.md ablation list).
#include <memory>

#include "bench/common.hpp"
#include "core/governor.hpp"
#include "device/session.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"

int main() {
  using namespace anole;
  bench::print_banner("Figure 7", "fast-changing clips: scene duration & cache");

  auto stack = bench::train_standard_stack();
  const auto spliced = bench::fast_changing_clips(stack.world, 6, 21);

  // --- (a) scene duration: frames between model switches, per clip ---
  std::printf("(a) scene duration (frames between model switches)\n");
  TablePrinter duration_table(
      {"clip", "min", "q1", "median", "q3", "max", "mean"});
  std::vector<double> all_durations;
  for (std::size_t t = 0; t < spliced.size(); ++t) {
    core::AnoleEngine engine(stack.system, bench::standard_cache_config());
    std::vector<double> durations;
    std::size_t run = 0;
    for (const auto& frame : spliced[t].frames) {
      const auto result = engine.process(frame);
      ++run;
      if (result.model_switched) {
        durations.push_back(static_cast<double>(run));
        run = 0;
      }
    }
    if (run > 0) durations.push_back(static_cast<double>(run));
    const auto box = boxplot_summary(durations);
    // Built via append rather than operator+: GCC 12 -O2 emits a spurious
    // -Wrestrict on `"literal" + std::string&&`.
    std::string trace_name = "T";
    trace_name += std::to_string(t + 1);
    duration_table.add_row(
        {std::move(trace_name), format_double(box.min, 0),
         format_double(box.q1, 1), format_double(box.median, 1),
         format_double(box.q3, 1), format_double(box.max, 0),
         format_double(box.mean, 1)});
    all_durations.insert(all_durations.end(), durations.begin(),
                         durations.end());
  }
  std::printf("%s", duration_table.to_string().c_str());
  double under_40 = 0.0;
  for (double d : all_durations) {
    if (d < 40.0) under_40 += 1.0;
  }
  std::printf("scenes lasting < 40 frames: %.1f%%, mean duration %.1f "
              "(paper: >80%% under 40 frames, mean < 20)\n\n",
              100.0 * under_40 / static_cast<double>(all_durations.size()),
              mean(all_durations));

  // --- (b) cache size sweep + eviction policy ablation ---
  std::printf("(b) cache miss rate and F1 vs cache size\n");
  TablePrinter cache_table({"cache size", "LFU miss", "LFU F1", "LRU miss",
                            "FIFO miss"});
  const std::size_t n_models = stack.system.repository.size();
  for (std::size_t capacity : {1u, 2u, 3u, 5u, 8u, 12u}) {
    if (capacity > n_models) continue;
    std::vector<std::string> row = {std::to_string(capacity)};
    for (const auto policy :
         {core::EvictionPolicy::kLfu, core::EvictionPolicy::kLru,
          core::EvictionPolicy::kFifo}) {
      core::CacheConfig config;
      config.capacity = capacity;
      config.policy = policy;
      core::AnoleEngine engine(stack.system, config);
      detect::MatchCounts counts;
      for (const auto& clip : spliced) {
        for (const auto& frame : clip.frames) {
          const auto result = engine.process(frame);
          counts += detect::match_detections(result.detections,
                                             frame.objects);
        }
      }
      row.push_back(format_double(engine.cache().miss_rate(), 3));
      if (policy == core::EvictionPolicy::kLfu) {
        row.push_back(format_double(counts.f1(), 3));
      }
    }
    cache_table.add_row(row);
  }
  std::printf("%s", cache_table.to_string().c_str());
  std::printf("paper shape: ~5 resident models already give a low miss rate "
              "and stable F1; even capacity 2 stays usable.\n\n");

  // --- (c) byte-budget ablation under a latency spike burst ---
  // Count-capacity (5 slots) vs a byte budget worth ~3 full models vs the
  // same budget with the runtime governor closing the loop, while 5% of
  // weight-streaming frames are hit by an 8x I/O latency spike
  // (DESIGN.md §11).
  std::printf("(c) byte budget + governor under a latency spike burst\n");
  constexpr const char* kBurstSpec = "seed=2024,load_latency_spike=0.05x8";
  const auto tx2 = device::DeviceProfile::jetson_tx2_nx(
      stack.system.repository.detector(0).flops_per_frame());
  const device::MemoryModel memory(
      stack.system.repository.detector(0).weight_bytes());
  std::uint64_t max_model_bytes = 0;
  for (std::size_t m = 0; m < n_models; ++m) {
    max_model_bytes = std::max(
        max_model_bytes, stack.system.repository.detector(m).weight_bytes());
  }

  TablePrinter budget_table({"configuration", "miss", "F1", "overruns",
                             "dropped", "p95 ms"});
  const auto closed_loop = [&](const char* name,
                               std::uint64_t memory_budget_bytes,
                               bool governed) {
    auto faults =
        std::make_shared<fault::FaultInjector>(std::string(kBurstSpec));
    core::RuntimeGovernor governor;
    core::EngineConfig config;
    config.cache = bench::standard_cache_config();
    config.cache.memory_budget_bytes = memory_budget_bytes;
    config.faults = faults;
    config.governor = governed ? &governor : nullptr;
    core::AnoleEngine engine(stack.system, config);
    device::DeviceSession session(tx2, 1.0, faults.get(),
                                  governed ? &governor : nullptr);
    detect::MatchCounts counts;
    for (const auto& clip : spliced) {
      for (const auto& frame : clip.frames) {
        const auto result = engine.process(frame);
        counts += detect::match_detections(result.detections, frame.objects);
        if (result.health.frame_dropped) continue;
        (void)session.process(device::frame_cost(stack.system, result, memory,
                                                 bench::kDeadlineMs));
      }
    }
    budget_table.add_row(
        {name, format_double(engine.cache().miss_rate(), 3),
         format_double(counts.f1(), 3),
         std::to_string(session.deadline_overruns()),
         std::to_string(engine.dropped_frames()),
         format_double(session.p95_latency_ms(), 1)});
  };
  closed_loop("count capacity (5 slots)", 0, false);
  closed_loop("byte budget (3 models)", 3 * max_model_bytes, false);
  closed_loop("byte budget + governor", 3 * max_model_bytes, true);
  std::printf("%s", budget_table.to_string().c_str());
  std::printf("expected shape: the byte budget tightens residency (higher "
              "miss rate); the governor trades F1 for deadline compliance "
              "when the burst hits.\n");
  return 0;
}
