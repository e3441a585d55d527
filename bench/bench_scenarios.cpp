// Hostile-world scenario bench: a clean stream and the four scenario packs
// (drift, degrade, bursts, diurnal) against three runtime postures, all on
// the paper's plain per-frame MSS — plain, plain + overload governor, and
// plain + drift responder (CUSUM detector -> floor recalibration + forced
// re-rank). Reports an F1/latency matrix per pack and compares the
// responder against plain, then pins the robustness contracts: scenario
// trace hashes and frames replay bitwise across reruns and 1-vs-4 worker
// threads, and ANOLE_DRIFT=0 reproduces the plain timeline exactly.
// Writes BENCH_scenarios.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/drift.hpp"
#include "core/governor.hpp"
#include "detect/detection.hpp"
#include "device/session.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "world/scenario.hpp"

namespace {

constexpr double kDeadlineMs = 33.3;  // 30 FPS budget
constexpr std::size_t kStreamLength = 900;

struct PackSpec {
  const char* name;
  const char* spec;  // ScenarioConfig grammar, parsed like ANOLE_SCENARIO
};

constexpr PackSpec kPacks[] = {
    {"clean", "seed=40"},
    {"drift", "seed=40,drift=1"},
    {"degrade", "seed=40,degrade=1x3"},
    {"bursts", "seed=40,bursts=0.35"},
    {"diurnal", "seed=40,diurnal=1"},
};

struct RunStats {
  double f1 = 0.0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  std::size_t deadline_overruns = 0;
  std::size_t dropped_frames = 0;
  std::size_t model_switches = 0;
  std::size_t drift_detections = 0;
  std::size_t drift_responses = 0;
  std::uint64_t timeline_hash = 0;  // FNV-1a over (served, dropped) pairs
};

/// Detector sensitive enough to fire within the first few hundred frames
/// of a sustained confidence depression, separated enough not to thrash.
anole::core::DriftConfig bench_drift_config() {
  anole::core::DriftConfig config;
  config.window = 48;
  config.baseline_window = 48;
  config.cusum_slack = 0.02;
  config.cusum_threshold = 0.6;
  config.min_separation = 64;
  return config;
}

}  // namespace

int main() {
  using namespace anole;
  bench::print_banner("Hostile-world scenarios",
                      "scenario packs x {plain, governor, responder} "
                      "with replay and drift-detach contracts");

  auto stack = bench::train_standard_stack();
  const auto tx2 = device::DeviceProfile::jetson_tx2_nx(
      stack.system.repository.detector(0).flops_per_frame());
  const device::MemoryModel memory(
      stack.system.repository.detector(0).weight_bytes());
  const std::uint64_t decision_flops =
      stack.system.decision->flops_per_sample();

  enum class Posture { kPlain, kGovernor, kResponder };
  const auto run = [&](const world::ScenarioStream& stream, Posture posture) {
    // Plain per-frame MSS: the paper's selection, no confidence floor.
    core::EngineConfig config;
    config.cache = bench::standard_cache_config();
    core::RuntimeGovernor governor;
    core::DriftDetector detector(bench_drift_config());
    if (posture == Posture::kGovernor) config.governor = &governor;
    if (posture == Posture::kResponder) config.drift = &detector;
    core::AnoleEngine engine(stack.system, config);
    device::DeviceSession session(
        tx2, 1.0, nullptr,
        posture == Posture::kGovernor ? &governor : nullptr);
    detect::MatchCounts counts;
    RunStats stats;
    Fnv1a timeline;
    for (const world::Frame& frame : stream.clip.frames) {
      const auto result = engine.process(frame);
      counts += detect::match_detections(result.detections, frame.objects);
      timeline.mix(result.served_model);
      timeline.mix(result.health.frame_dropped ? 1 : 0);
      if (result.health.frame_dropped) continue;
      const double weight_mb = memory.load_mb(
          stack.system.repository.detector(result.served_model)
              .weight_bytes());
      device::FrameCost cost;
      cost.decision_flops = result.ranking_reused ? 0 : decision_flops;
      cost.detector_flops = stack.system.repository
                                .detector(result.served_model)
                                .flops_per_frame();
      cost.loaded_weight_mb = result.model_loaded ? weight_mb : 0.0;
      const std::size_t failed_attempts =
          result.health.load_attempts - (result.model_loaded ? 1 : 0);
      cost.retried_weight_mb =
          static_cast<double>(failed_attempts) * weight_mb;
      cost.deadline_ms = kDeadlineMs;
      (void)session.process(cost);
    }
    stats.timeline_hash = timeline.value();
    stats.f1 = counts.f1();
    stats.mean_latency_ms = session.mean_latency_ms();
    stats.p95_latency_ms = session.p95_latency_ms();
    stats.deadline_overruns = session.deadline_overruns();
    stats.dropped_frames = engine.dropped_frames();
    stats.model_switches = engine.model_switches();
    stats.drift_detections = detector.detections();
    stats.drift_responses = engine.drift_responses();
    return stats;
  };

  // ---- Contract 1: scenario composition replays bitwise across reruns
  // and worker-thread counts.
  bool scenario_replay_identical = true;
  const std::size_t saved_threads = par::thread_count();
  std::vector<world::ScenarioStream> streams;
  std::vector<std::uint64_t> scenario_hashes;
  for (const PackSpec& pack : kPacks) {
    const auto config = world::ScenarioConfig::parse(pack.spec);
    par::set_thread_count(1);
    auto stream = world::compose_scenario(stack.world, config, kStreamLength);
    const auto rerun = world::compose_scenario(stack.world, config,
                                               kStreamLength);
    par::set_thread_count(4);
    const auto threaded = world::compose_scenario(stack.world, config,
                                                  kStreamLength);
    par::set_thread_count(saved_threads);
    const std::uint64_t hash = stream.trace_hash();
    if (hash != rerun.trace_hash() || hash != threaded.trace_hash()) {
      scenario_replay_identical = false;
      std::fprintf(stderr, "[bench_scenarios] %s trace hash diverged!\n",
                   pack.name);
    }
    // The trace covers the event schedule only; the frames themselves
    // must match too.
    const std::uint64_t frames = stream.clip.content_hash();
    if (frames != rerun.clip.content_hash() ||
        frames != threaded.clip.content_hash()) {
      scenario_replay_identical = false;
      std::fprintf(stderr, "[bench_scenarios] %s frames diverged!\n",
                   pack.name);
    }
    scenario_hashes.push_back(hash);
    streams.push_back(std::move(stream));
  }

  // ---- The pack x posture matrix.
  constexpr Posture kPostures[] = {Posture::kPlain, Posture::kGovernor,
                                   Posture::kResponder};
  constexpr const char* kPostureNames[] = {"plain", "governor", "responder"};
  std::vector<std::vector<RunStats>> matrix;
  TablePrinter table({"pack", "posture", "F1", "mean ms", "p95 ms",
                      "overruns", "dropped", "switches", "drift resp"});
  for (std::size_t p = 0; p < streams.size(); ++p) {
    std::vector<RunStats> row;
    for (const Posture posture : kPostures) {
      row.push_back(run(streams[p], posture));
    }
    for (std::size_t v = 0; v < row.size(); ++v) {
      table.add_row({kPacks[p].name, kPostureNames[v],
                     format_double(row[v].f1, 3),
                     format_double(row[v].mean_latency_ms, 1),
                     format_double(row[v].p95_latency_ms, 1),
                     std::to_string(row[v].deadline_overruns),
                     std::to_string(row[v].dropped_frames),
                     std::to_string(row[v].model_switches),
                     std::to_string(row[v].drift_responses)});
    }
    matrix.push_back(std::move(row));
  }
  std::printf("%s", table.to_string().c_str());

  // ---- Plain against responder, per pack: with no confidence floor to
  // recalibrate, a response only forces a re-rank that per-frame MSS
  // runs anyway.
  for (std::size_t p = 0; p < streams.size(); ++p) {
    const RunStats& plain = matrix[p][0];
    const RunStats& responder = matrix[p][2];
    std::printf(
        "%-8s plain F1 %.4f vs responder F1 %.4f (%zu responses): "
        "timelines %s\n",
        kPacks[p].name, plain.f1, responder.f1, responder.drift_responses,
        plain.timeline_hash == responder.timeline_hash ? "identical"
                                                       : "differ");
  }

  // ---- Contract 2: ANOLE_DRIFT=0 detaches the responder and reproduces
  // the plain timeline exactly.
  const std::size_t drift_idx = 1;  // kPacks order
  const RunStats& plain = matrix[drift_idx][0];
  ::setenv("ANOLE_DRIFT", "0", 1);
  const RunStats detached = run(streams[drift_idx], Posture::kResponder);
  ::unsetenv("ANOLE_DRIFT");
  const bool detach_exact = detached.timeline_hash == plain.timeline_hash &&
                            detached.f1 == plain.f1 &&
                            detached.drift_responses == 0;
  std::printf("ANOLE_DRIFT=0 reproduces the plain timeline: %s\n",
              detach_exact ? "yes" : "NO (detach regression!)");
  std::printf(
      "scenario trace hashes and frames rerun/thread invariant: %s\n",
      scenario_replay_identical ? "yes" : "NO (determinism bug!)");

  std::FILE* out = std::fopen("BENCH_scenarios.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr,
                 "[bench_scenarios] cannot open BENCH_scenarios.json\n");
    return 1;
  }
  const auto emit = [out](const char* name, const RunStats& stats,
                          const char* suffix) {
    std::fprintf(out, "      \"%s\": {\n", name);
    std::fprintf(out, "        \"f1\": %.4f,\n", stats.f1);
    std::fprintf(out, "        \"mean_latency_ms\": %.3f,\n",
                 stats.mean_latency_ms);
    std::fprintf(out, "        \"p95_latency_ms\": %.3f,\n",
                 stats.p95_latency_ms);
    std::fprintf(out, "        \"deadline_overruns\": %zu,\n",
                 stats.deadline_overruns);
    std::fprintf(out, "        \"dropped_frames\": %zu,\n",
                 stats.dropped_frames);
    std::fprintf(out, "        \"model_switches\": %zu,\n",
                 stats.model_switches);
    std::fprintf(out, "        \"drift_detections\": %zu,\n",
                 stats.drift_detections);
    std::fprintf(out, "        \"drift_responses\": %zu,\n",
                 stats.drift_responses);
    std::fprintf(out, "        \"timeline_hash\": \"%016llx\"\n",
                 static_cast<unsigned long long>(stats.timeline_hash));
    std::fprintf(out, "      }%s\n", suffix);
  };
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"frames_per_pack\": %zu,\n", kStreamLength);
  std::fprintf(out, "  \"deadline_ms\": %.1f,\n", kDeadlineMs);
  std::fprintf(out, "  \"scenario_replay_identical\": %s,\n",
               scenario_replay_identical ? "true" : "false");
  std::fprintf(out, "  \"drift_detach_exact\": %s,\n",
               detach_exact ? "true" : "false");
  std::fprintf(out, "  \"packs\": {\n");
  for (std::size_t p = 0; p < streams.size(); ++p) {
    std::fprintf(out, "    \"%s\": {\n", kPacks[p].name);
    std::fprintf(out, "      \"spec\": \"%s\",\n", kPacks[p].spec);
    std::fprintf(out, "      \"scenario_trace_hash\": \"%016llx\",\n",
                 static_cast<unsigned long long>(scenario_hashes[p]));
    for (std::size_t v = 0; v < matrix[p].size(); ++v) {
      emit(kPostureNames[v], matrix[p][v],
           v + 1 < matrix[p].size() ? "," : "");
    }
    std::fprintf(out, "    }%s\n", p + 1 < streams.size() ? "," : "");
  }
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_scenarios.json\n");
  return (scenario_replay_identical && detach_exact) ? 0 : 1;
}
