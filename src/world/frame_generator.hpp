// Renders Frames from a SceneStyle and an object list, and evolves object
// state over time for clips.
#pragma once

#include <vector>

#include "util/rng.hpp"
#include "world/frame.hpp"
#include "world/scene_style.hpp"

namespace anole::world {

/// The canonical object signature direction in the object block; scenes
/// rotate it by SceneStyle::appearance_angle before imprinting.
std::array<double, kBlockChannels> object_signature(double appearance_angle);

/// Stateless frame renderer.
///
/// Rendering splits into allocation (blank_frame) and painting (paint), so
/// a stream can be synthesized in two passes: one thread makes every draw
/// that decides the stream, in stream order, recording each frame's Rng
/// state and passing over its paint draws with skip_paint(); the frames
/// then paint in parallel, each from its own Rng copy, bit-identical to
/// painting them in order.
class FrameGenerator {
 public:
  explicit FrameGenerator(std::size_t grid_size = kDefaultGridSize);

  /// Renders one frame of `objects` under `style`. Fills features, stats,
  /// attributes; provenance fields (clip/dataset ids) are left default.
  /// Equivalent to paint(blank_frame(attrs, objects), style, rng).
  Frame render(const SceneStyle& style, const SceneAttributes& attrs,
               const std::vector<ObjectInstance>& objects, Rng& rng) const;

  /// A frame of this generator's grid with `attrs` and `objects` set and
  /// its cells allocated (zeroed), not yet painted.
  Frame blank_frame(const SceneAttributes& attrs,
                    std::vector<ObjectInstance> objects) const;

  /// Paints a blank_frame() in place under `style`: cell features
  /// (noise, clutter, imprinted objects) and photometric stats.
  void paint(Frame& frame, const SceneStyle& style, Rng& rng) const;

  /// Advances `rng` exactly as paint() under `style` would, without
  /// evaluating a single normal or clutter signature.
  void skip_paint(const SceneStyle& style, Rng& rng) const;

  /// Samples a fresh object consistent with `style`.
  ObjectInstance sample_object(const SceneStyle& style, Rng& rng) const;

  std::size_t grid_size() const { return grid_size_; }

 private:
  std::size_t grid_size_;
};

/// What a scheduled frame paints from: its style and the Rng state its
/// paint draws start at (FrameGenerator::skip_paint took the schedule's
/// Rng past them).
struct FramePaint {
  SceneStyle style;
  Rng rng;
};

/// Frames per pool task when scheduled frames paint in parallel: a task
/// is 10-20 ms of painting, far above the pool's wake-up cost, and short
/// enough that the last task of a fan-out leaves little idle time.
inline constexpr std::size_t kPaintGrain = 128;

/// Object motion state for temporally coherent clips.
struct MovingObject {
  ObjectInstance instance;
  double vx = 0.0;
  double vy = 0.0;
  double growth = 0.0;  ///< per-frame relative size change (approach/recede)
};

/// Birth-death object dynamics targeting the style's object density.
class ObjectDynamics {
 public:
  ObjectDynamics(const FrameGenerator& generator, const SceneStyle& style,
                 Rng& rng);

  /// Advances one frame and returns the current object list.
  std::vector<ObjectInstance> step(Rng& rng);

  /// Resets the population for a new scene (used at splice points of the
  /// synthesized fast-changing clips).
  void reset(const SceneStyle& style, Rng& rng);

 private:
  void spawn(Rng& rng);

  const FrameGenerator& generator_;
  SceneStyle style_;
  std::vector<MovingObject> objects_;
};

}  // namespace anole::world
