#include "detect/detector_trainer.hpp"

#include <algorithm>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace anole::detect {
namespace {

/// Splits detector outputs [cells, 5] into objectness [cells, 1] and
/// boxes [cells, 4] views (copies; cheap at this scale).
void split_outputs(const Tensor& outputs, Tensor& objectness, Tensor& boxes) {
  const std::size_t cells = outputs.rows();
  // Every element is written below; skip the zero-fills.
  objectness = Tensor::uninitialized(Shape{cells, 1});
  boxes = Tensor::uninitialized(Shape{cells, 4});
  for (std::size_t i = 0; i < cells; ++i) {
    auto row = outputs.row(i);
    objectness.at(i, 0) = row[0];
    for (std::size_t c = 0; c < 4; ++c) boxes.at(i, c) = row[c + 1];
  }
}

Tensor merge_gradients(const Tensor& grad_objectness, const Tensor& grad_boxes,
                       double box_weight) {
  const std::size_t cells = grad_objectness.rows();
  Tensor grad =
      Tensor::uninitialized(Shape{cells, GridDetector::kOutputsPerCell});
  for (std::size_t i = 0; i < cells; ++i) {
    auto row = grad.row(i);
    row[0] = grad_objectness.at(i, 0);
    for (std::size_t c = 0; c < 4; ++c) {
      row[c + 1] = static_cast<float>(box_weight) * grad_boxes.at(i, c);
    }
  }
  return grad;
}

/// Copies every row of `src` into `dst` from row `row` on: one block copy,
/// as both are row-major with the same width (the caller checked shapes).
void copy_rows(const Tensor& src, Tensor& dst, std::size_t row) {
  const auto from = src.data();
  std::copy(from.begin(), from.end(), dst.data().begin() + row * dst.cols());
}

}  // namespace

std::size_t DetectorTrainConfig::effective_epochs(std::size_t frames) const {
  if (reference_frames == 0 || frames == 0 || frames >= reference_frames) {
    return epochs;
  }
  const std::size_t scaled = epochs * reference_frames / frames;
  return std::min(scaled, epochs * 6);
}

DetectorTrainResult train_detector(
    GridDetector& detector, const std::vector<const world::Frame*>& frames,
    const DetectorTrainConfig& config, Rng& rng) {
  ANOLE_CHECK_GE(config.frames_per_batch, 1u,
                 "train_detector: frames_per_batch == 0 would never advance");
  ANOLE_CHECK(config.learning_rate > 0.0,
              "train_detector: learning_rate must be positive, got ",
              config.learning_rate);
  DetectorTrainResult result;
  result.frames_seen = frames.size();
  if (frames.empty()) return result;

  nn::Sequential& net = detector.network();
  net.set_training(true);
  nn::Adam optimizer(net.parameters(), config.learning_rate, 0.9, 0.999,
                     1e-8, config.weight_decay);

  // Featurize every frame once up front: inputs and targets are pure
  // functions of the frame, and rebuilding them per batch per epoch used
  // to dominate the non-GEMM training profile. Their shapes are checked
  // here, once per frame, so batch assembly below is plain block copies.
  const std::size_t features = GridDetector::input_features();
  std::vector<Tensor> cached_inputs(frames.size());
  std::vector<GridDetector::Targets> cached_targets(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    cached_inputs[f] = GridDetector::build_inputs(*frames[f]);
    cached_targets[f] = GridDetector::build_targets(*frames[f]);
    const std::size_t cells = frames[f]->cell_count();
    const GridDetector::Targets& targets = cached_targets[f];
    ANOLE_CHECK(cached_inputs[f].shape() == Shape({cells, features}) &&
                    targets.objectness.shape() == Shape({cells, 1}) &&
                    targets.boxes.shape() == Shape({cells, 4}) &&
                    targets.box_mask.shape() == Shape({cells, 4}),
                "train_detector: frame ", f, " inputs/targets do not match ",
                "its ", cells, " cells");
  }

  const std::size_t epochs = config.effective_epochs(frames.size());
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    auto order = random_permutation(frames.size(), rng);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += config.frames_per_batch) {
      const std::size_t end =
          std::min(start + config.frames_per_batch, order.size());
      // Stack the per-cell rows of all frames in the batch: every row of
      // all four tensors is written below, so they skip the zero-fill.
      std::size_t total_cells = 0;
      for (std::size_t k = start; k < end; ++k) {
        total_cells += frames[order[k]]->cell_count();
      }
      Tensor inputs = Tensor::uninitialized(Shape{total_cells, features});
      Tensor target_obj = Tensor::uninitialized(Shape{total_cells, 1});
      Tensor target_boxes = Tensor::uninitialized(Shape{total_cells, 4});
      Tensor box_mask = Tensor::uninitialized(Shape{total_cells, 4});
      std::size_t row = 0;
      for (std::size_t k = start; k < end; ++k) {
        const std::size_t f = order[k];
        copy_rows(cached_inputs[f], inputs, row);
        copy_rows(cached_targets[f].objectness, target_obj, row);
        copy_rows(cached_targets[f].boxes, target_boxes, row);
        copy_rows(cached_targets[f].box_mask, box_mask, row);
        row += frames[f]->cell_count();
      }

      Tensor outputs = net.forward(inputs);
      Tensor objectness;
      Tensor boxes;
      split_outputs(outputs, objectness, boxes);

      Tensor grad_obj;
      Tensor grad_boxes;
      const float obj_loss =
          nn::bce_with_logits(objectness, target_obj, grad_obj,
                              static_cast<float>(config.positive_weight));
      const float box_loss =
          nn::mse_loss(boxes, target_boxes, grad_boxes, box_mask);
      net.accumulate_gradients(
          merge_gradients(grad_obj, grad_boxes, config.box_loss_weight));
      optimizer.step();
      epoch_loss += obj_loss + config.box_loss_weight * box_loss;
      ++batches;
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(batches, 1));
    result.epoch_losses.push_back(epoch_loss);
    if (config.verbose) {
      log_info(detector.name(), " epoch ", epoch, " loss ", epoch_loss);
    }
  }
  net.set_training(false);
  return result;
}

double evaluate_f1(Detector& detector,
                   const std::vector<const world::Frame*>& frames,
                   double iou_threshold) {
  return evaluate_counts(detector, frames, iou_threshold).f1();
}

MatchCounts evaluate_counts(Detector& detector,
                            const std::vector<const world::Frame*>& frames,
                            double iou_threshold) {
  MatchCounts counts;
  for (const world::Frame* frame : frames) {
    ANOLE_CHECK_NOTNULL(frame, "evaluate_counts: null frame pointer");
    counts += match_detections(detector.detect(*frame), frame->objects,
                               iou_threshold);
  }
  return counts;
}

}  // namespace anole::detect
