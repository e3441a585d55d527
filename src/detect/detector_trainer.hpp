// Training loop for GridDetector: joint objectness BCE (with positive
// weighting — object cells are rare) and masked box-regression MSE.
#pragma once

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
