// Deterministic hostile-world scenario packs composed on top of the world
// simulator.
//
// The benchmark worlds are stationary: every clip is drawn from a fixed
// scene mix and the runtime is never asked to survive a changing world.
// A ScenarioConfig arms up to four hostility packs and compose_scenario()
// synthesizes one long frame stream that applies them on top of the seen
// scene styles of an existing World:
//
//   drift    gradual distribution drift: the scene mix interpolates from
//            the world's seen-clip mix toward a hostile late-season mix
//            (fog / snow / night scenes the decision model saw rarely).
//   degrade  progressive sensor degradation: seeded additive noise and a
//            neighbor-blur ramp on the rendered cell features, with the
//            frame's photometric stats recomputed afterwards.
//   bursts   scene-transition bursts: seeded tunnel-style lighting flips
//            (brightness crush for a short window, exit flash after).
//   diurnal  a day-night traffic replay: time-of-day sweeps one full
//            diurnal cycle over the stream while object density follows
//            morning/evening rush peaks.
//
// Configuration is programmatic: arm(), or parse() of a spec string in
// the grammar below (the same shape as ANOLE_FAULTS). Composition is
// seeded — per-pack Rng streams keep an unarmed pack from perturbing an
// armed one. Every draw that decides the stream is made in stream order
// on the calling thread; only the per-frame painting and sensor
// degradation run on the pool, each frame from its own recorded Rng
// states. So for a given (world, config, length) the frames and the
// scenario event trace are bitwise identical across runs and thread
// counts; the FNV-1a trace hash and Clip::content_hash pin that in tests.
//
// Spec grammar (comma-separated tokens):
//   "seed=7,drift=1.0,degrade=0.6x2,bursts=0.03x6,diurnal=1"
//     seed=<u64>             stream seed (default 0x5CE7A)
//     <pack>=<intensity>     pack intensity in [0, 1] (0 disarms)
//     <pack>=<i>x<mag>       intensity plus a pack-specific magnitude:
//                            drift    late-mix weight multiplier
//                            degrade  noise/blur ramp multiplier
//                            bursts   brightness crush factor of a flip
//                            diurnal  rush-hour traffic amplitude
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "world/world.hpp"

namespace anole::world {

/// Named hostility packs. Each pack draws from its own Rng stream so the
/// schedule of one pack never depends on which others are armed.
enum class ScenarioPack : std::size_t {
  /// Gradual distribution drift (seasonal weather-mix shift).
  kDrift = 0,
  /// Progressive sensor degradation (noise/blur ramp).
  kDegrade,
  /// Scene-transition bursts (tunnel-style lighting flips).
  kBursts,
  /// Diurnal traffic replay (day-night cycle + rush-hour density).
  kDiurnal,
};

inline constexpr std::size_t kScenarioPackCount = 4;

const char* to_string(ScenarioPack pack);
std::optional<ScenarioPack> pack_from_name(std::string_view name);

struct ScenarioConfig {
  static constexpr std::uint64_t kDefaultSeed = 0x5CE7AULL;

  struct PackState {
    /// Pack strength in [0, 1]; 0 means the pack is disarmed.
    double intensity = 0.0;
    /// Pack-specific magnitude (see the spec grammar above); must be > 0.
    double magnitude = 1.0;
  };

  std::uint64_t seed = kDefaultSeed;
  std::array<PackState, kScenarioPackCount> packs;

  /// Arms `pack` with the given intensity (in [0, 1]) and magnitude.
  void arm(ScenarioPack pack, double intensity, double magnitude = 1.0);

  /// True when any pack has a non-zero intensity.
  bool armed() const;

  double intensity(ScenarioPack pack) const;
  double magnitude(ScenarioPack pack) const;

  /// Parses the spec grammar documented above. Throws
  /// anole::ContractViolation naming the offending token on malformed
  /// input (unknown pack, out-of-range intensity, non-finite or
  /// non-positive magnitude, trailing garbage).
  static ScenarioConfig parse(const std::string& spec);
};

/// One scheduled hostility event, in stream order — the replayable trace.
struct ScenarioEvent {
  ScenarioPack pack = ScenarioPack::kDrift;
  /// Stream frame index where the event took effect.
  std::uint64_t frame = 0;
  /// Pack-specific detail:
  ///   drift    semantic scene id of the segment, bit 32 set when the
  ///            segment came from the hostile late mix
  ///   degrade  ramp level in per-mille at the segment start
  ///   bursts   1 = burst entry, 0 = burst exit
  ///   diurnal  (density per-mille << 2) | time-of-day index
  std::uint64_t detail = 0;
};

/// A composed hostile stream: the frames, the event schedule that shaped
/// them, and the config that produced it.
struct ScenarioStream {
  Clip clip;
  std::vector<ScenarioEvent> events;
  ScenarioConfig config;

  /// FNV-1a hash over the config's armed state and every event; equal
  /// hashes across two compositions mean identical hostility schedules.
  std::uint64_t trace_hash() const;
};

/// Composes `length` hostile frames on top of `world`'s seen scenes.
/// Requires at least one seen clip and length >= 1. Deterministic in
/// (world, config, length) at any thread count.
ScenarioStream compose_scenario(const World& world,
                                const ScenarioConfig& config,
                                std::size_t length);

}  // namespace anole::world
