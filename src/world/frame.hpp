// Frame and Clip data types — the synthetic stand-ins for driving video.
//
// A frame is a G x G grid of feature cells (kCellChannels channels each,
// see SceneStyle) plus the ground-truth object list. Clips add temporal
// identity: consecutive frames share a scene and smoothly moving objects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "world/attributes.hpp"

namespace anole::world {

/// Default grid resolution (cells per side).
inline constexpr std::size_t kDefaultGridSize = 12;

/// A ground-truth object, in normalized frame coordinates.
struct ObjectInstance {
  double cx = 0.5;  ///< center x in [0, 1]
  double cy = 0.5;  ///< center y in [0, 1]
  double w = 0.1;   ///< width in [0, 1]
  double h = 0.1;   ///< height in [0, 1]
  /// How strongly the object imprints on the feature grid (0 = invisible).
  double visibility = 1.0;

  double area() const { return w * h; }
};

/// One video frame: grid features + ground truth + provenance.
struct Frame {
  /// [grid*grid, kCellChannels] cell features, row-major by (y, x).
  Tensor cells;
  std::size_t grid_size = kDefaultGridSize;

  std::vector<ObjectInstance> objects;

  SceneAttributes attributes;
  /// Index of the clip this frame belongs to within its World.
  std::size_t clip_id = 0;
  /// Frame index within the clip.
  std::size_t frame_index = 0;
  /// Which source dataset generated this frame (index into World::datasets).
  std::size_t dataset_id = 0;

  /// Global photometric statistics, regenerating the paper's Fig. 5 axes.
  double brightness = 0.0;  ///< mean of the luminance block
  double contrast = 0.0;    ///< stddev of the luminance block

  std::size_t semantic_scene_id() const { return attributes.semantic_index(); }

  /// Total ground-truth object area as a fraction of the frame.
  double object_area_ratio() const;

  std::size_t cell_count() const { return grid_size * grid_size; }
};

/// How a clip's frames are split for experiments (paper section VI-A1:
/// seen clips split 6:2:2 into train/val/test; unseen clips are held out).
enum class SplitRole { kTrain, kValidation, kTest, kUnseen };

const char* to_string(SplitRole role);

/// A contiguous sequence of frames from one recording.
struct Clip {
  std::vector<Frame> frames;
  SceneAttributes attributes;
  std::size_t clip_id = 0;
  std::size_t dataset_id = 0;
  bool seen = true;  ///< false = excluded from all training (new-scene eval)

  std::size_t size() const { return frames.size(); }

  /// Split role of frame i under the 6:2:2 contiguous-block protocol
  /// (kUnseen for every frame of an unseen clip).
  SplitRole split_role(std::size_t frame_index) const;

  /// FNV-1a over the clip's ids and attributes and everything each frame
  /// carries: cell bits, brightness/contrast bits, objects, attributes and
  /// ids. Equal hashes mean bit-identical frames.
  std::uint64_t content_hash() const;
};

}  // namespace anole::world
