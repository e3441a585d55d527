// Training loop for GridDetector: joint objectness BCE (with positive
// weighting — object cells are rare) and masked box-regression MSE.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "detect/grid_detector.hpp"
#include "util/rng.hpp"

namespace anole::detect {

struct DetectorTrainConfig {
  std::size_t epochs = 12;
  std::size_t frames_per_batch = 8;
  double learning_rate = 2e-3;
  double weight_decay = 1e-5;
  /// Loss weight on box regression relative to objectness.
  double box_loss_weight = 1.0;
  /// BCE weight on positive (object) cells.
  double positive_weight = 6.0;
  /// When > 0, epoch count is scaled so a training set of
  /// `reference_frames` frames and a smaller specialist set receive a
  /// comparable number of gradient steps (capped at 6x `epochs`). This is
  /// how scene-specific models get fully fine-tuned on their small
  /// Gamma_i, mirroring the paper's per-scene fine-tuning budget.
  std::size_t reference_frames = 0;
  bool verbose = false;

  /// Epochs actually run for a training set of `frames` frames.
  std::size_t effective_epochs(std::size_t frames) const;
};

struct DetectorTrainResult {
  /// One loss per epoch run.
  std::vector<double> epoch_losses;
  std::size_t frames_seen = 0;
  /// True when the stop predicate ended training before its last epoch.
  bool stopped = false;
};

/// One training frame as train_detector caches it: only what varies per
/// cell, the frame's context once, and the targets. A frame's input rows
/// (GridDetector::build_inputs) repeat the same 24 context floats in every
/// cell; this layout holds 16 floats per cell instead of 42.
struct CompactFrame {
  std::size_t grid_size = 0;
  /// [cells, GridDetector::kCellFeatures]: GridDetector::build_cell_features.
  Tensor cell_features;
  /// world::write_channel_moments of the frame.
  std::array<float, world::kChannelMoments> context{};
  GridDetector::Targets targets;
};

/// Featurizes one frame into the compact training layout.
CompactFrame compact_frame(const world::Frame& frame);

/// One training batch: the per-cell rows of a few frames, stacked.
struct DetectorBatch {
  Tensor inputs;                  ///< [cells, input_features]
  GridDetector::Targets targets;  ///< stacked like the inputs
};

/// Stacks the compact frames `order` (indices into `frames`) into one
/// batch, after an O(1) shape check of each frame's tensors. Each input
/// row is GridDetector::assemble_input_row over the cached features, so
/// the rows are bit for bit those build_inputs writes; the targets are
/// one block copy per tensor per frame.
DetectorBatch stack_batch(const std::vector<CompactFrame>& frames,
                          std::span<const std::size_t> order);

/// The two terms of the detector objective on one batch.
struct DetectorLoss {
  float objectness = 0.0f;  ///< positive-weighted BCE, mean over cells
  float box = 0.0f;         ///< masked MSE, mean over the mask's weight
};

/// The detector objective on `outputs` [cells, 5] in one pass: BCE with
/// logits on column 0 against `targets.objectness`, weighting positive
/// cells by `positive_weight` (> 0), and MSE on columns 1..4 against
/// `targets.boxes` gated by `targets.box_mask`. Writes the gradient with
/// respect to `outputs` into `grad`, its box columns scaled by
/// `box_loss_weight`. Every loss, and every gradient bit, equals what
/// nn::bce_with_logits and the masked nn::mse_loss return on the split
/// columns, with the box gradient then multiplied by
/// float(box_loss_weight).
DetectorLoss detector_loss(const Tensor& outputs,
                           const GridDetector::Targets& targets,
                           float positive_weight, double box_loss_weight,
                           Tensor& grad);

/// Trains `detector` on `frames` (ground truth comes from each frame).
/// When `stop` is set it is called before every epoch, and the first true
/// ends training there: the result then holds one loss per epoch run and
/// `stopped` is set. Algorithm 1 uses it to drop candidates the acceptance
/// walk will never read.
DetectorTrainResult train_detector(
    GridDetector& detector, const std::vector<const world::Frame*>& frames,
    const DetectorTrainConfig& config, Rng& rng,
    const std::function<bool()>& stop = {});

/// Micro F1 of a detector over frames: the F1 of the MatchCounts summed
/// over all frames (not a mean of per-frame F1 scores).
double evaluate_f1(Detector& detector,
                   const std::vector<const world::Frame*>& frames,
                   double iou_threshold = kDefaultIouThreshold);

/// Aggregate match counts of a detector over frames.
MatchCounts evaluate_counts(Detector& detector,
                            const std::vector<const world::Frame*>& frames,
                            double iou_threshold = kDefaultIouThreshold);

}  // namespace anole::detect
