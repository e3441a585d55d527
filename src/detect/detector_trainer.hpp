// Training loop for GridDetector: joint objectness BCE (with positive
// weighting — object cells are rare) and masked box-regression MSE.
#pragma once

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
  std::vector<double> epoch_losses;
  std::size_t frames_seen = 0;
};

/// One training batch: the per-cell rows of a few frames, stacked.
struct DetectorBatch {
  Tensor inputs;                  ///< [cells, input_features]
  GridDetector::Targets targets;  ///< stacked like the inputs
};

/// Stacks the featurized frames `order` (indices into `inputs` and
/// `targets`, the per-frame build_inputs / build_targets tensors) into one
/// batch: one block copy per tensor per frame, after an O(1) shape check
/// of each frame's four tensors.
DetectorBatch stack_batch(const std::vector<Tensor>& inputs,
                          const std::vector<GridDetector::Targets>& targets,
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
DetectorTrainResult train_detector(GridDetector& detector,
                                   const std::vector<const world::Frame*>& frames,
                                   const DetectorTrainConfig& config,
                                   Rng& rng);

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
