// GridDetector: the trainable object detector over cell-grid frames.
//
// This is the repo's stand-in for YOLOv3 (large preset) and YOLOv3-tiny
// (compressed preset): a per-cell prediction head shared across all grid
// cells — the 1x1-conv view of a one-stage detector. Each cell's input is
// its own features plus a global context descriptor (per-channel mean and
// spread of the whole frame), so a sufficiently large head can *adapt* its
// decision rule to the scene, while a small head lacks the capacity to do
// so across many scenes — the exact asymmetry Anole exploits.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "detect/detection.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"
#include "world/frame.hpp"

namespace anole::detect {

/// Abstract detector, the unit Anole routes between.
class Detector {
 public:
  virtual ~Detector() = default;

  /// Runs detection on one frame (post NMS).
  virtual std::vector<Detection> detect(const world::Frame& frame) = 0;

  /// Const detection path: identical results to detect(), but guaranteed
  /// to write no state (it runs the network through nn::Module::infer),
  /// so concurrent infer() calls on one detector are safe as long as no
  /// thread mutates the detector concurrently. This is what the engine's
  /// batch path fans out over frames.
  virtual std::vector<Detection> infer(const world::Frame& frame) const = 0;

  virtual std::string name() const = 0;

  /// Per-frame multiply-accumulate cost (drives the device simulator).
  virtual std::uint64_t flops_per_frame() const = 0;

  /// Serialized weight size in bytes (drives load latency and memory).
  virtual std::uint64_t weight_bytes() = 0;
};

struct GridDetectorConfig {
  /// Hidden layer widths of the shared per-cell head.
  std::vector<std::size_t> hidden = {24};
  /// Confidence threshold for emitting a detection.
  double confidence_threshold = 0.5;
  /// NMS IoU threshold (low: duplicate firings on adjacent cells of one
  /// object overlap only partially).
  double nms_threshold = 0.30;
  /// NMS center-distance suppression radius (~1.2 cells at grid 12).
  double nms_center_distance = 0.10;
  std::string name = "grid-detector";

  /// Compressed preset — the YOLOv3-tiny stand-in.
  static GridDetectorConfig compressed(std::string name = "tiny");
  /// Large preset — the YOLOv3 stand-in (roughly 10x the FLOPs).
  static GridDetectorConfig large(std::string name = "deep");
};

class GridDetector : public Detector {
 public:
  /// Outputs per cell: objectness logit + (dx, dy, w, h).
  static constexpr std::size_t kOutputsPerCell = 5;

  GridDetector(const GridDetectorConfig& config, Rng& rng,
               std::size_t grid_size = world::kDefaultGridSize);

  std::vector<Detection> detect(const world::Frame& frame) override;
  std::vector<Detection> infer(const world::Frame& frame) const override;
  std::string name() const override { return config_.name; }
  std::uint64_t flops_per_frame() const override;
  std::uint64_t weight_bytes() override;

  /// Width of one per-cell input row.
  static std::size_t input_features();

  /// Builds the [cells, input_features] matrix for one frame.
  static Tensor build_inputs(const world::Frame& frame);

  /// Per-cell training targets for one frame: objectness [cells, 1],
  /// box regression [cells, 4], and the positive-cell mask [cells, 4].
  struct Targets {
    Tensor objectness;
    Tensor boxes;
    Tensor box_mask;
  };
  static Targets build_targets(const world::Frame& frame);

  nn::Sequential& network() { return *network_; }
  const GridDetectorConfig& config() const { return config_; }
  std::size_t grid_size() const { return grid_size_; }

  void set_confidence_threshold(double threshold) {
    config_.confidence_threshold = threshold;
  }

  /// Renames the detector after construction (Algorithm 1 names a model
  /// only once it is accepted into the repository).
  void set_name(std::string name) { config_.name = std::move(name); }

 private:
  GridDetectorConfig config_;
  std::size_t grid_size_;
  std::unique_ptr<nn::Sequential> network_;
};

}  // namespace anole::detect
