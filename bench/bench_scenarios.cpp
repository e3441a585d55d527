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
      (void)session.process(device::frame_cost(stack.system, result, memory,
                                               bench::kDeadlineMs));
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

  JsonWriter json;
  bench::write_provenance(json);
  json.integer("frames_per_pack", kStreamLength)
      .number("deadline_ms", bench::kDeadlineMs, 1)
      .boolean("scenario_replay_identical", scenario_replay_identical)
      .boolean("drift_detach_exact", detach_exact)
      .begin_object("packs");
  for (std::size_t p = 0; p < streams.size(); ++p) {
    json.begin_object(kPacks[p].name)
        .string("spec", kPacks[p].spec)
        .hash("scenario_trace_hash", scenario_hashes[p]);
    for (std::size_t v = 0; v < matrix[p].size(); ++v) {
      const RunStats& stats = matrix[p][v];
      json.begin_object(kPostureNames[v])
          .number("f1", stats.f1, 4)
          .number("mean_latency_ms", stats.mean_latency_ms, 3)
          .number("p95_latency_ms", stats.p95_latency_ms, 3)
          .integer("deadline_overruns", stats.deadline_overruns)
          .integer("dropped_frames", stats.dropped_frames)
          .integer("model_switches", stats.model_switches)
          .integer("drift_detections", stats.drift_detections)
          .integer("drift_responses", stats.drift_responses)
          .hash("timeline_hash", stats.timeline_hash)
          .end_object();
    }
    json.end_object();
  }
  json.end_object();
  if (!bench::save_json("BENCH_scenarios.json", json)) return 1;
  return (scenario_replay_identical && detach_exact) ? 0 : 1;
}
