#include "world/world.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace anole::world {

ClipGenerator::ClipGenerator(std::size_t grid_size)
    : generator_(grid_size) {}

namespace {

/// Makes every draw of ClipGenerator::generate on `rng`, in the same
/// order, but leaves the frames blank: frame i paints from the i-th
/// FramePaint appended to `paints`.
Clip schedule_clip(const FrameGenerator& generator, const ClipSpec& spec,
                   Rng& rng, std::vector<FramePaint>& paints) {
  Clip clip;
  clip.attributes = spec.attributes;
  clip.clip_id = spec.clip_id;
  clip.dataset_id = spec.dataset_id;
  clip.seen = spec.seen;
  clip.frames.reserve(spec.length);

  SceneStyle base_style = SceneStyle::from_attributes(
      spec.attributes, spec.style_seed, spec.style_variation);
  ObjectDynamics dynamics(generator, base_style, rng);

  double flicker = 0.0;  // AR(1) illumination flicker
  for (std::size_t i = 0; i < spec.length; ++i) {
    flicker = 0.9 * flicker + rng.normal(0.0, 0.012);
    SceneStyle style = base_style;
    style.brightness =
        std::clamp(base_style.brightness * (1.0 + flicker), 0.05, 1.0);
    Frame& frame = clip.frames.emplace_back(
        generator.blank_frame(spec.attributes, dynamics.step(rng)));
    frame.clip_id = spec.clip_id;
    frame.dataset_id = spec.dataset_id;
    frame.frame_index = i;
    paints.push_back(FramePaint{style, rng});
    generator.skip_paint(style, rng);
  }
  return clip;
}

/// Paints frames[i] from paints[i] on the pool.
void paint_frames(const FrameGenerator& generator,
                  const std::vector<Frame*>& frames,
                  std::vector<FramePaint>& paints) {
  par::parallel_for(0, frames.size(), kPaintGrain, [&](std::size_t i) {
    generator.paint(*frames[i], paints[i].style, paints[i].rng);
  });
}

}  // namespace

Clip ClipGenerator::generate(const ClipSpec& spec, Rng& rng) const {
  std::vector<FramePaint> paints;
  Clip clip = schedule_clip(generator_, spec, rng, paints);
  std::vector<Frame*> frames;
  for (Frame& frame : clip.frames) frames.push_back(&frame);
  paint_frames(generator_, frames, paints);
  return clip;
}

SceneAttributes AttributePool::sample(Rng& rng) const {
  ANOLE_CHECK(!attributes.empty(), "AttributePool::sample: empty pool");
  ANOLE_CHECK_EQ(weights.size(), attributes.size(),
                 "AttributePool::sample: weight/attribute count mismatch");
  return attributes[rng.weighted_index(weights)];
}

namespace {

AttributePool make_pool(const std::vector<Weather>& weathers,
                        const std::vector<double>& weather_weights,
                        const std::vector<Location>& locations,
                        const std::vector<double>& location_weights,
                        const std::vector<TimeOfDay>& times,
                        const std::vector<double>& time_weights) {
  AttributePool pool;
  for (std::size_t w = 0; w < weathers.size(); ++w) {
    for (std::size_t l = 0; l < locations.size(); ++l) {
      for (std::size_t t = 0; t < times.size(); ++t) {
        pool.attributes.push_back(
            SceneAttributes{weathers[w], locations[l], times[t]});
        pool.weights.push_back(weather_weights[w] * location_weights[l] *
                               time_weights[t]);
      }
    }
  }
  return pool;
}

}  // namespace

DatasetProfile kitti_like_profile() {
  DatasetProfile profile;
  profile.name = "KITTI";
  profile.seen_clips = 9;
  // Table III lists one unseen KITTI clip: {Street, Day}; our grammar maps
  // "street" to the residential location.
  profile.unseen_clip_attributes = {
      {Weather::kClear, Location::kResidential, TimeOfDay::kDaytime}};
  profile.pool = make_pool(
      {Weather::kClear, Weather::kOvercast}, {0.7, 0.3},
      {Location::kUrban, Location::kResidential}, {0.5, 0.5},
      {TimeOfDay::kDaytime}, {1.0});
  profile.style_variation = 0.25;
  return profile;
}

DatasetProfile bdd_like_profile() {
  DatasetProfile profile;
  profile.name = "BDD100k";
  profile.seen_clips = 40;
  profile.unseen_clip_attributes = {
      {Weather::kClear, Location::kUrban, TimeOfDay::kNight},
      {Weather::kOvercast, Location::kUrban, TimeOfDay::kDaytime},
      {Weather::kClear, Location::kHighway, TimeOfDay::kDawnDusk},
      {Weather::kRainy, Location::kResidential, TimeOfDay::kNight}};
  profile.pool = make_pool(
      {Weather::kClear, Weather::kOvercast, Weather::kRainy, Weather::kSnowy,
       Weather::kFoggy},
      {0.26, 0.20, 0.20, 0.18, 0.16},
      {Location::kHighway, Location::kUrban, Location::kResidential,
       Location::kParkingLot, Location::kTunnel, Location::kGasStation,
       Location::kBridge, Location::kTollBooth},
      {0.20, 0.24, 0.16, 0.08, 0.09, 0.07, 0.09, 0.07},
      {TimeOfDay::kDaytime, TimeOfDay::kDawnDusk, TimeOfDay::kNight},
      {0.40, 0.25, 0.35});
  profile.style_variation = 0.5;
  return profile;
}

DatasetProfile shd_like_profile() {
  DatasetProfile profile;
  profile.name = "SHD";
  profile.seen_clips = 9;
  profile.unseen_clip_attributes = {
      {Weather::kClear, Location::kTunnel, TimeOfDay::kNight}};
  profile.pool = make_pool(
      {Weather::kClear, Weather::kRainy}, {0.7, 0.3},
      {Location::kHighway, Location::kUrban, Location::kTunnel},
      {0.4, 0.4, 0.2},
      {TimeOfDay::kDaytime, TimeOfDay::kNight}, {0.6, 0.4});
  profile.style_variation = 0.35;
  return profile;
}

std::vector<const Frame*> World::frames_with_role(SplitRole role) const {
  std::vector<const Frame*> frames;
  for (const auto& clip : clips) {
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      if (clip.split_role(i) == role) frames.push_back(&clip.frames[i]);
    }
  }
  return frames;
}

std::vector<const Frame*> World::frames_with_role(
    SplitRole role, std::size_t dataset_id) const {
  std::vector<const Frame*> frames;
  for (const auto& clip : clips) {
    if (clip.dataset_id != dataset_id) continue;
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      if (clip.split_role(i) == role) frames.push_back(&clip.frames[i]);
    }
  }
  return frames;
}

std::vector<const Clip*> World::clips_of_dataset(
    std::size_t dataset_id) const {
  std::vector<const Clip*> result;
  for (const auto& clip : clips) {
    if (clip.dataset_id == dataset_id) result.push_back(&clip);
  }
  return result;
}

std::vector<const Clip*> World::unseen_clips() const {
  std::vector<const Clip*> result;
  for (const auto& clip : clips) {
    if (!clip.seen) result.push_back(&clip);
  }
  return result;
}

std::size_t World::total_frames() const {
  std::size_t total = 0;
  for (const auto& clip : clips) total += clip.frames.size();
  return total;
}

World make_world(const WorldConfig& config,
                 const std::vector<DatasetProfile>& profiles) {
  World world;
  world.config = config;
  ANOLE_CHECK_GE(config.grid_size, 1u, "make_world: grid_size == 0");
  ANOLE_CHECK_GE(config.frames_per_clip, 1u,
                 "make_world: frames_per_clip == 0");
  ANOLE_CHECK(config.clip_scale > 0.0,
              "make_world: clip_scale must be positive, got ",
              config.clip_scale);
  Rng rng(config.seed);
  const FrameGenerator painter(config.grid_size);
  // Every clip is scheduled first, in order, on `rng`; then all frames
  // paint on the pool at once.
  std::vector<FramePaint> paints;

  std::size_t clip_id = 0;
  for (std::size_t d = 0; d < profiles.size(); ++d) {
    const DatasetProfile& profile = profiles[d];
    world.dataset_names.push_back(profile.name);
    const auto scaled = static_cast<std::size_t>(std::max(
        1.0, std::round(static_cast<double>(profile.seen_clips) *
                        config.clip_scale)));
    for (std::size_t c = 0; c < scaled; ++c) {
      ClipSpec spec;
      spec.attributes = profile.pool.sample(rng);
      spec.length = config.frames_per_clip;
      spec.style_variation = profile.style_variation;
      spec.style_seed = config.seed ^ (0x5bd1e995ULL * (clip_id + 1));
      spec.clip_id = clip_id;
      spec.dataset_id = d;
      spec.seen = true;
      world.clips.push_back(schedule_clip(painter, spec, rng, paints));
      ++clip_id;
    }
    for (const auto& attrs : profile.unseen_clip_attributes) {
      ClipSpec spec;
      spec.attributes = attrs;
      spec.length = config.frames_per_clip;
      spec.style_variation = profile.style_variation;
      spec.style_seed = config.seed ^ (0xc2b2ae35ULL * (clip_id + 1));
      spec.clip_id = clip_id;
      spec.dataset_id = d;
      spec.seen = false;
      world.clips.push_back(schedule_clip(painter, spec, rng, paints));
      ++clip_id;
    }
  }

  std::vector<Frame*> frames;
  frames.reserve(paints.size());
  for (Clip& clip : world.clips) {
    for (Frame& frame : clip.frames) frames.push_back(&frame);
  }
  paint_frames(painter, frames, paints);
  return world;
}

World make_benchmark_world(const WorldConfig& config) {
  return make_world(config, {kitti_like_profile(), bdd_like_profile(),
                             shd_like_profile()});
}

Clip synthesize_fast_changing_clip(const World& world, std::size_t segments,
                                   std::size_t segment_length, Rng& rng) {
  ANOLE_CHECK_GE(segments, 1u, "synthesize_fast_changing_clip: segments == 0");
  ANOLE_CHECK_GE(segment_length, 1u,
                 "synthesize_fast_changing_clip: segment_length == 0");
  std::vector<const Clip*> seen;
  for (const auto& clip : world.clips) {
    if (clip.seen) seen.push_back(&clip);
  }
  ANOLE_CHECK(!seen.empty(), "synthesize_fast_changing_clip: no seen clips");
  ClipGenerator generator(world.config.grid_size);
  Clip spliced;
  spliced.seen = false;
  spliced.clip_id = world.clips.size();
  std::size_t frame_index = 0;
  for (std::size_t s = 0; s < segments; ++s) {
    const Clip& source = *seen[rng.uniform_index(seen.size())];
    ClipSpec spec;
    spec.attributes = source.attributes;
    spec.length = segment_length;
    spec.style_variation = 0.3;
    spec.style_seed = world.config.seed ^ (0x27d4eb2fULL * (source.clip_id + 1));
    spec.clip_id = spliced.clip_id;
    spec.dataset_id = source.dataset_id;
    Clip segment = generator.generate(spec, rng);
    for (auto& frame : segment.frames) {
      frame.frame_index = frame_index++;
      spliced.frames.push_back(std::move(frame));
    }
  }
  spliced.attributes = spliced.frames.empty() ? SceneAttributes{}
                                              : spliced.frames[0].attributes;
  return spliced;
}

}  // namespace anole::world
