#include "world/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/spec.hpp"
#include "world/frame_generator.hpp"

namespace anole::world {
namespace {

constexpr std::array<const char*, kScenarioPackCount> kPackNames = {
    "drift", "degrade", "bursts", "diurnal"};

/// How parse errors name a scenario spec.
constexpr std::string_view kSpecSource = "scenario spec";

/// Frames per scenario segment: long enough for the cache dynamics to
/// matter, short enough that a hostile mix shift produces many scene
/// transitions per stream.
constexpr std::size_t kSegmentLength = 30;

/// Frames scheduled before they paint (rounded up to whole segments): 64
/// paint tasks per fan-out, and at most ~2 MB of recorded Rng states and
/// styles at once instead of ~9 MB for a 40k-frame stream.
constexpr std::size_t kComposeBlock = 64 * kPaintGrain;

/// Frames a lighting burst lasts, and the exit-flash tail after it.
constexpr std::size_t kBurstLength = 10;
constexpr std::size_t kFlashLength = 2;

/// The hostile late-season mix the drift pack shifts toward: low-light,
/// low-visibility scenes that the seen-clip pools sample rarely (or
/// never), so the decision model's calibration degrades as they take
/// over.
constexpr std::array<SceneAttributes, 6> kLateMix = {{
    {Weather::kFoggy, Location::kTunnel, TimeOfDay::kNight},
    {Weather::kSnowy, Location::kBridge, TimeOfDay::kNight},
    {Weather::kRainy, Location::kHighway, TimeOfDay::kNight},
    {Weather::kFoggy, Location::kUrban, TimeOfDay::kDawnDusk},
    {Weather::kSnowy, Location::kHighway, TimeOfDay::kDawnDusk},
    {Weather::kRainy, Location::kUrban, TimeOfDay::kNight},
}};

std::size_t pack_index(ScenarioPack pack) {
  const auto index = static_cast<std::size_t>(pack);
  ANOLE_CHECK_RANGE(index, kScenarioPackCount, "unknown ScenarioPack");
  return index;
}

/// Time-of-day along one diurnal cycle, phase in [0, 1): midday start,
/// evening rush into dusk, a long night, dawn, back to daytime.
TimeOfDay diurnal_time(double phase) {
  if (phase < 0.25) return TimeOfDay::kDaytime;
  if (phase < 0.375) return TimeOfDay::kDawnDusk;
  if (phase < 0.75) return TimeOfDay::kNight;
  if (phase < 0.875) return TimeOfDay::kDawnDusk;
  return TimeOfDay::kDaytime;
}

/// Traffic-density multiplier of the diurnal replay: morning/evening rush
/// peaks, a night lull. `amplitude` scales the swing.
double diurnal_density_scale(double phase, double amplitude) {
  const auto peak = [phase](double center, double width) {
    const double d = (phase - center) / width;
    return std::exp(-d * d);
  };
  const double rush = peak(0.15, 0.08) + peak(0.85, 0.08);
  const double lull = diurnal_time(phase) == TimeOfDay::kNight ? 0.45 : 0.0;
  return std::clamp(1.0 + amplitude * rush - amplitude * lull, 0.2, 3.0);
}

/// Progressive sensor damage: seeded additive noise on every channel and
/// a neighbor blur on the cell grid (optics fouling / focus loss), with
/// the frame's photometric stats recomputed afterwards. `level` in
/// [0, 1] is the ramp position scaled by the pack intensity; `magnitude`
/// multiplies both effects. Its only draws are one normal per cell value,
/// in storage order.
void apply_sensor_degradation(Frame& frame, double level, double magnitude,
                              Rng& rng) {
  const std::size_t g = frame.grid_size;
  const std::size_t cells = g * g;
  const double sigma = 0.10 * level * magnitude;
  const double blur = std::clamp(0.45 * level * magnitude, 0.0, 0.75);

  for (float& value : frame.cells.data()) {
    value += static_cast<float>(rng.normal(0.0, sigma));
  }

  if (blur > 0.0) {
    // 4-neighbor box blur into a copy so the pass order cannot matter.
    std::vector<float> original(cells * kCellChannels);
    for (std::size_t i = 0; i < cells; ++i) {
      auto cell = frame.cells.row(i);
      for (std::size_t c = 0; c < kCellChannels; ++c) {
        original[i * kCellChannels + c] = cell[c];
      }
    }
    const auto at = [&original](std::size_t cell, std::size_t channel) {
      return original[cell * kCellChannels + channel];
    };
    for (std::size_t y = 0; y < g; ++y) {
      for (std::size_t x = 0; x < g; ++x) {
        const std::size_t i = y * g + x;
        auto cell = frame.cells.row(i);
        for (std::size_t c = 0; c < kCellChannels; ++c) {
          double sum = 0.0;
          std::size_t count = 0;
          if (y > 0) { sum += at(i - g, c); ++count; }
          if (y + 1 < g) { sum += at(i + g, c); ++count; }
          if (x > 0) { sum += at(i - 1, c); ++count; }
          if (x + 1 < g) { sum += at(i + 1, c); ++count; }
          const double neighbor_mean =
              count == 0 ? at(i, c) : sum / static_cast<double>(count);
          cell[c] = static_cast<float>((1.0 - blur) * at(i, c) +
                                       blur * neighbor_mean);
        }
      }
    }
  }

  // Photometric stats over the luminance block, same convention as
  // FrameGenerator::render.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < cells; ++i) {
    auto cell = frame.cells.row(i);
    for (std::size_t c = 0; c < kBlockChannels; ++c) {
      sum += cell[c];
      sum_sq += static_cast<double>(cell[c]) * cell[c];
    }
  }
  const auto lum_count = static_cast<double>(cells * kBlockChannels);
  frame.brightness = sum / lum_count;
  const double var =
      sum_sq / lum_count - frame.brightness * frame.brightness;
  frame.contrast = std::sqrt(std::max(var, 0.0));
}

/// What a scheduled frame paints and degrades from.
struct ScenarioPaint {
  FramePaint paint;
  Rng degrade_rng;
  /// Degradation ramp level; 0 leaves the frame undamaged.
  double ramp = 0.0;
};

}  // namespace

const char* to_string(ScenarioPack pack) {
  return kPackNames[pack_index(pack)];
}

std::optional<ScenarioPack> pack_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kScenarioPackCount; ++i) {
    if (name == kPackNames[i]) return static_cast<ScenarioPack>(i);
  }
  return std::nullopt;
}

void ScenarioConfig::arm(ScenarioPack pack, double intensity,
                         double magnitude) {
  ANOLE_CHECK(intensity >= 0.0 && intensity <= 1.0,
              "ScenarioConfig::arm: intensity must be in [0, 1], got ",
              intensity);
  ANOLE_CHECK(std::isfinite(magnitude) && magnitude > 0.0,
              "ScenarioConfig::arm: magnitude must be finite and > 0, got ",
              magnitude);
  packs[pack_index(pack)] = PackState{intensity, magnitude};
}

bool ScenarioConfig::armed() const {
  for (const PackState& state : packs) {
    if (state.intensity > 0.0) return true;
  }
  return false;
}

double ScenarioConfig::intensity(ScenarioPack pack) const {
  return packs[pack_index(pack)].intensity;
}

double ScenarioConfig::magnitude(ScenarioPack pack) const {
  return packs[pack_index(pack)].magnitude;
}

ScenarioConfig ScenarioConfig::parse(const std::string& spec) {
  ScenarioConfig config;
  for (const spec::Token& token : spec::tokenize(spec, kSpecSource)) {
    if (token.key == "seed") {
      config.seed = spec::parse_u64(token.value, kSpecSource, "seed");
      continue;
    }
    const auto pack = pack_from_name(token.key);
    ANOLE_CHECK(pack.has_value(), kSpecSource, ": unknown pack '",
                token.key,
                "' (packs: drift, degrade, bursts, diurnal)");
    const spec::Rate rate =
        spec::parse_rate(token.value, kSpecSource, token.key);
    config.packs[pack_index(*pack)] =
        PackState{rate.value, rate.magnitude};
  }
  return config;
}

std::uint64_t ScenarioStream::trace_hash() const {
  Fnv1a hash;
  hash.mix(config.seed);
  for (const ScenarioConfig::PackState& state : config.packs) {
    hash.mix(std::bit_cast<std::uint64_t>(state.intensity));
    hash.mix(std::bit_cast<std::uint64_t>(state.magnitude));
  }
  for (const ScenarioEvent& event : events) {
    hash.mix(static_cast<std::uint64_t>(event.pack));
    hash.mix(event.frame);
    hash.mix(event.detail);
  }
  return hash.value();
}

ScenarioStream compose_scenario(const World& world,
                                const ScenarioConfig& config,
                                std::size_t length) {
  ANOLE_CHECK_GE(length, 1u, "compose_scenario: length == 0");
  std::vector<const Clip*> seen;
  for (const auto& clip : world.clips) {
    if (clip.seen) seen.push_back(&clip);
  }
  ANOLE_CHECK(!seen.empty(), "compose_scenario: world has no seen clips");

  ScenarioStream stream;
  stream.config = config;
  Clip& clip = stream.clip;
  clip.clip_id = world.clips.size();
  clip.seen = false;
  clip.frames.reserve(length);

  // Independent seeded streams per concern (mirrors the fault injector's
  // per-site streams): arming one pack never shifts another pack's — or
  // the base world's — schedule.
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  Rng scene_rng(config.seed + kGolden * 1);
  Rng drift_rng(config.seed + kGolden * 2);
  Rng burst_rng(config.seed + kGolden * 3);
  Rng degrade_rng(config.seed + kGolden * 4);
  Rng render_rng(config.seed + kGolden * 5);

  const ScenarioConfig::PackState& drift =
      config.packs[pack_index(ScenarioPack::kDrift)];
  const ScenarioConfig::PackState& degrade =
      config.packs[pack_index(ScenarioPack::kDegrade)];
  const ScenarioConfig::PackState& bursts =
      config.packs[pack_index(ScenarioPack::kBursts)];
  const ScenarioConfig::PackState& diurnal =
      config.packs[pack_index(ScenarioPack::kDiurnal)];

  FrameGenerator generator(world.config.grid_size);

  // Composition alternates two passes over blocks of frames. The
  // schedule below makes every draw that decides the stream, in stream
  // order on this thread, and allocates each frame; it records the Rng
  // states a frame's paint and degradation start from and skips the Rng
  // streams past them. Then the block's frames paint on the pool.
  std::vector<ScenarioPaint> paints;
  paints.reserve(std::min(length, kComposeBlock + kSegmentLength));
  const auto paint_block = [&] {
    const std::size_t first = clip.frames.size() - paints.size();
    par::parallel_for(0, paints.size(), kPaintGrain, [&](std::size_t i) {
      ScenarioPaint& job = paints[i];
      Frame& frame = clip.frames[first + i];
      generator.paint(frame, job.paint.style, job.paint.rng);
      if (job.ramp > 0.0) {
        apply_sensor_degradation(frame, job.ramp, degrade.magnitude,
                                 job.degrade_rng);
      }
    });
    paints.clear();
  };

  const double denom =
      length > 1 ? static_cast<double>(length - 1) : 1.0;

  std::size_t burst_remaining = 0;
  std::size_t flash_remaining = 0;

  std::size_t frame_index = 0;
  std::size_t segment = 0;
  while (frame_index < length) {
    const std::size_t segment_start = frame_index;
    const double progress = static_cast<double>(segment_start) / denom;

    // --- pick the segment's scene: base mix, or the hostile late mix ---
    const Clip& source = *seen[scene_rng.uniform_index(seen.size())];
    SceneAttributes attrs = source.attributes;
    std::size_t dataset_id = source.dataset_id;
    bool hostile = false;
    if (drift.intensity > 0.0) {
      const double late_weight = std::clamp(
          drift.intensity * progress * drift.magnitude, 0.0, 1.0);
      if (drift_rng.bernoulli(late_weight)) {
        attrs = kLateMix[drift_rng.uniform_index(kLateMix.size())];
        hostile = true;
      }
      stream.events.push_back(ScenarioEvent{
          ScenarioPack::kDrift, segment_start,
          static_cast<std::uint64_t>(attrs.semantic_index()) |
              (hostile ? (std::uint64_t{1} << 32) : 0)});
    }

    // --- diurnal overrides: time-of-day sweep + traffic density ---
    double density_scale = 1.0;
    if (diurnal.intensity > 0.0) {
      const double phase = progress - std::floor(progress);
      attrs.time = diurnal_time(phase);
      density_scale = diurnal_density_scale(
          phase, diurnal.intensity * diurnal.magnitude);
      stream.events.push_back(ScenarioEvent{
          ScenarioPack::kDiurnal, segment_start,
          (static_cast<std::uint64_t>(density_scale * 1000.0) << 2) |
              static_cast<std::uint64_t>(attrs.time)});
    }

    if (degrade.intensity > 0.0) {
      stream.events.push_back(ScenarioEvent{
          ScenarioPack::kDegrade, segment_start,
          static_cast<std::uint64_t>(1000.0 * degrade.intensity *
                                     progress)});
    }

    // A fresh per-segment rendition of the scene: the style seed folds in
    // the segment ordinal so a recurring scene is a new recording, not a
    // replay of the same clip.
    SceneStyle base_style = SceneStyle::from_attributes(
        attrs, config.seed ^ (kGolden * (segment + 1)), 0.35);
    base_style.object_density *= density_scale;
    ObjectDynamics dynamics(generator, base_style, render_rng);

    for (std::size_t i = 0; i < kSegmentLength && frame_index < length;
         ++i, ++frame_index) {
      const double ramp =
          degrade.intensity * (static_cast<double>(frame_index) / denom);
      SceneStyle style = base_style;

      // --- lighting bursts: tunnel-entry crush, exit flash ---
      if (bursts.intensity > 0.0) {
        if (burst_remaining == 0 && flash_remaining == 0 &&
            burst_rng.bernoulli(bursts.intensity)) {
          burst_remaining = kBurstLength;
          stream.events.push_back(
              ScenarioEvent{ScenarioPack::kBursts, frame_index, 1});
        }
        if (burst_remaining > 0) {
          style.brightness =
              std::clamp(style.brightness / bursts.magnitude, 0.02, 1.0);
          style.contrast *= 0.6;
          if (--burst_remaining == 0) {
            flash_remaining = kFlashLength;
            stream.events.push_back(
                ScenarioEvent{ScenarioPack::kBursts, frame_index, 0});
          }
        } else if (flash_remaining > 0) {
          style.brightness = std::min(1.0, style.brightness * 1.6);
          --flash_remaining;
        }
      }

      // --- degradation ramp: part of it is style-level (gain/contrast
      // wash-out), the rest is post-render sensor damage below ---
      if (ramp > 0.0) {
        style.noise += 0.15 * ramp * degrade.magnitude;
        style.contrast *= 1.0 - 0.35 * ramp;
        style.brightness =
            std::clamp(style.brightness * (1.0 - 0.15 * ramp), 0.05, 1.0);
      }

      Frame& frame = clip.frames.emplace_back(
          generator.blank_frame(attrs, dynamics.step(render_rng)));
      frame.clip_id = clip.clip_id;
      frame.dataset_id = dataset_id;
      frame.frame_index = frame_index;
      paints.push_back(ScenarioPaint{FramePaint{style, render_rng},
                                     degrade_rng, ramp});
      generator.skip_paint(style, render_rng);
      if (ramp > 0.0) degrade_rng.skip_normals(frame.cells.size());
    }
    ++segment;
    if (paints.size() >= kComposeBlock) paint_block();
  }
  paint_block();

  clip.attributes = clip.frames.front().attributes;
  return stream;
}

}  // namespace anole::world
