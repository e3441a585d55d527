// Clip generation, dataset profiles, and assembly of the 64-clip benchmark
// world mirroring the paper's data mix (10 KITTI-like + 44 BDD100k-like +
// 10 SHD-like clips, split 9:1 seen:unseen, each seen clip split 6:2:2).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "world/frame.hpp"
#include "world/frame_generator.hpp"
#include "world/scene_style.hpp"

namespace anole::world {

/// Everything needed to generate one clip.
struct ClipSpec {
  SceneAttributes attributes;
  std::size_t length = 120;
  /// Scales the per-scene style jitter (dataset-specific rendition).
  double style_variation = 0.3;
  std::uint64_t style_seed = 0;
  std::size_t clip_id = 0;
  std::size_t dataset_id = 0;
  bool seen = true;
};

/// Generates temporally coherent clips: smooth object motion plus AR(1)
/// illumination flicker around the scene style.
class ClipGenerator {
 public:
  explicit ClipGenerator(std::size_t grid_size = kDefaultGridSize);

  /// Every draw on `rng` is made in frame order on the calling thread;
  /// the frames then paint on the pool (FrameGenerator).
  Clip generate(const ClipSpec& spec, Rng& rng) const;

  const FrameGenerator& frame_generator() const { return generator_; }

 private:
  FrameGenerator generator_;
};

/// Weighted pool of scene attributes a dataset draws clips from.
struct AttributePool {
  std::vector<SceneAttributes> attributes;
  std::vector<double> weights;

  SceneAttributes sample(Rng& rng) const;
};

/// A source dataset profile (stands in for KITTI / BDD100k / SHD).
struct DatasetProfile {
  std::string name;
  std::size_t seen_clips = 0;
  /// Unseen clips with pinned attributes (the paper's Table III scenes).
  std::vector<SceneAttributes> unseen_clip_attributes;
  AttributePool pool;
  double style_variation = 0.3;
};

/// The KITTI-like profile: simple — clear/overcast daytime city driving.
DatasetProfile kitti_like_profile();
/// The BDD100k-like profile: large and diverse across all attributes.
DatasetProfile bdd_like_profile();
/// The SHD-like profile: Shanghai dashcam — highway/urban/tunnel, day+night.
DatasetProfile shd_like_profile();

struct WorldConfig {
  std::size_t grid_size = kDefaultGridSize;
  std::size_t frames_per_clip = 120;
  std::uint64_t seed = 42;
  /// Scales every dataset's clip count (1.0 = the paper's 64-clip mix);
  /// tests use smaller worlds.
  double clip_scale = 1.0;
};

/// The full generated corpus.
struct World {
  std::vector<Clip> clips;
  std::vector<std::string> dataset_names;
  WorldConfig config;

  /// All frames with the given split role, across all clips.
  std::vector<const Frame*> frames_with_role(SplitRole role) const;

  /// Frames with the given role restricted to one dataset.
  std::vector<const Frame*> frames_with_role(SplitRole role,
                                             std::size_t dataset_id) const;

  /// All clips of a dataset.
  std::vector<const Clip*> clips_of_dataset(std::size_t dataset_id) const;

  /// The unseen clips (new-scene evaluation, Table III).
  std::vector<const Clip*> unseen_clips() const;

  std::size_t total_frames() const;
};

/// Builds the benchmark world from the three dataset profiles.
World make_benchmark_world(const WorldConfig& config);

/// Builds a world from explicit profiles (tests use tiny custom mixes).
World make_world(const WorldConfig& config,
                 const std::vector<DatasetProfile>& profiles);

/// Synthesizes one fast-changing clip (paper section VI-C): picks
/// `segments` random seen clips and regenerates `segment_length` fresh
/// frames in each clip's scene, splicing them into one sequence.
Clip synthesize_fast_changing_clip(const World& world, std::size_t segments,
                                   std::size_t segment_length, Rng& rng);

}  // namespace anole::world
