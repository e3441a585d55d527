#include "detect/detector_trainer.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "nn/optimizer.hpp"
#include "tensor/simd.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace anole::detect {
namespace {

constexpr std::size_t kBoxOutputs = GridDetector::kOutputsPerCell - 1;

bool is_matrix(const Tensor& t, std::size_t rows, std::size_t cols) {
  return t.rank() == 2 && t.rows() == rows && t.cols() == cols;
}

/// Whether a cell's box-mask row holds a weight other than ±0. One
/// well-predicted branch per cell: a per-element test would let the
/// compiler turn the conditional sums below into a select on every
/// element, a serial chain through all 4 x cells of them.
bool any_box_weight(const float* mask_row) {
  static_assert(kBoxOutputs == 4);
  std::uint32_t bits[kBoxOutputs];
  std::memcpy(bits, mask_row, sizeof(bits));
  return ((bits[0] | bits[1] | bits[2] | bits[3]) & 0x7FFFFFFFu) != 0;
}

/// Copies every row of `src` into `dst` from row `row` on: one block copy,
/// as both are row-major with the same width (the caller checked shapes).
void copy_rows(const Tensor& src, Tensor& dst, std::size_t row) {
  const auto from = src.data();
  std::copy(from.begin(), from.end(), dst.data().begin() + row * dst.cols());
}

}  // namespace

CompactFrame compact_frame(const world::Frame& frame) {
  ANOLE_CHECK_GE(frame.grid_size, 1u, "compact_frame: frame has no grid");
  CompactFrame compact;
  compact.grid_size = frame.grid_size;
  compact.cell_features = GridDetector::build_cell_features(frame);
  world::write_channel_moments(frame, compact.context);
  compact.targets = GridDetector::build_targets(frame);
  return compact;
}

DetectorBatch stack_batch(const std::vector<CompactFrame>& frames,
                          std::span<const std::size_t> order) {
  constexpr std::size_t kCellFeatures = GridDetector::kCellFeatures;
  const std::size_t features = GridDetector::input_features();
  std::size_t cells = 0;
  for (std::size_t f : order) {
    ANOLE_CHECK_LT(f, frames.size(), "stack_batch: frame index out of range");
    const CompactFrame& frame = frames[f];
    const std::size_t rows = frame.grid_size * frame.grid_size;
    ANOLE_CHECK(is_matrix(frame.cell_features, rows, kCellFeatures) &&
                    is_matrix(frame.targets.objectness, rows, 1) &&
                    is_matrix(frame.targets.boxes, rows, kBoxOutputs) &&
                    is_matrix(frame.targets.box_mask, rows, kBoxOutputs),
                "stack_batch: frame ", f, " features/targets do not match "
                "its ", frame.grid_size, "x", frame.grid_size, " grid");
    cells += rows;
  }
  // Every row of all four tensors is written below: skip the zero-fill.
  DetectorBatch batch;
  batch.inputs = Tensor::uninitialized(Shape{cells, features});
  batch.targets.objectness = Tensor::uninitialized(Shape{cells, 1});
  batch.targets.boxes = Tensor::uninitialized(Shape{cells, kBoxOutputs});
  batch.targets.box_mask = Tensor::uninitialized(Shape{cells, kBoxOutputs});
  std::size_t row = 0;
  for (std::size_t f : order) {
    const CompactFrame& frame = frames[f];
    const std::size_t g = frame.grid_size;
    const float* cell = frame.cell_features.data().data();
    float* out = batch.inputs.data().data() + row * features;
    for (std::size_t y = 0; y < g; ++y) {
      for (std::size_t x = 0; x < g; ++x) {
        GridDetector::assemble_input_row(cell, cell + world::kCellChannels,
                                         frame.context.data(), x, y, g, out);
        cell += kCellFeatures;
        out += features;
      }
    }
    copy_rows(frame.targets.objectness, batch.targets.objectness, row);
    copy_rows(frame.targets.boxes, batch.targets.boxes, row);
    copy_rows(frame.targets.box_mask, batch.targets.box_mask, row);
    row += g * g;
  }
  return batch;
}

DetectorLoss detector_loss(const Tensor& outputs,
                           const GridDetector::Targets& targets,
                           float positive_weight, double box_loss_weight,
                           Tensor& grad) {
  constexpr std::size_t kWidth = GridDetector::kOutputsPerCell;
  ANOLE_CHECK(outputs.rank() == 2 && outputs.cols() == kWidth &&
                  outputs.rows() > 0,
              "detector_loss: expected non-empty [cells, ", kWidth,
              "] outputs, got ", shape_to_string(outputs.shape()));
  const std::size_t cells = outputs.rows();
  ANOLE_CHECK(is_matrix(targets.objectness, cells, 1) &&
                  is_matrix(targets.boxes, cells, kBoxOutputs) &&
                  is_matrix(targets.box_mask, cells, kBoxOutputs),
              "detector_loss: targets do not match ", cells, " cells");
  ANOLE_CHECK_GT(positive_weight, 0.0f,
                 "detector_loss: positive_weight must be > 0");
  const float* out = outputs.data().data();
  const float* obj_target = targets.objectness.data().data();
  const float* box_target = targets.boxes.data().data();
  const float* mask = targets.box_mask.data().data();

  // The MSE's normalizer first: the mask weight summed in element order,
  // skipping zeros, as nn::mse_loss sums it. When it is 0, mse_loss leaves
  // its gradient unscaled, which a factor of 1 reproduces bit for bit.
  double active = 0.0;
  for (std::size_t i = 0; i < cells; ++i) {
    const float* m = mask + i * kBoxOutputs;
    if (!any_box_weight(m)) continue;
    for (std::size_t c = 0; c < kBoxOutputs; ++c) {
      if (m[c] != 0.0f) active += m[c];
    }
  }
  const float inv_active =
      active == 0.0 ? 1.0f : static_cast<float>(1.0 / active);
  const float box_weight = static_cast<float>(box_loss_weight);
  // A masked-out element's merged gradient: mse_loss's zero, scaled.
  const float masked_grad = box_weight * (0.0f * inv_active);

  // σ(z) and log1p(exp(-|z|)) of the objectness logits through the
  // dispatched kernel, as nn::bce_with_logits computes them.
  FloatBuffer scratch(3 * cells);
  float* logits = scratch.data();
  float* sigma = logits + cells;
  float* log_terms = sigma + cells;
  for (std::size_t i = 0; i < cells; ++i) logits[i] = out[i * kWidth];
  simd::sigmoid_terms(simd::active_level(), logits, cells, sigma, log_terms);

  // Every element is written below; skip the zero-fill.
  grad = Tensor::uninitialized(outputs.shape());
  float* g = grad.data().data();
  const float inv_cells = 1.0f / static_cast<float>(cells);
  double obj_loss = 0.0;
  double box_loss = 0.0;
  for (std::size_t i = 0; i < cells; ++i) {
    const float z = logits[i];
    const float t = obj_target[i];
    const float w = t > 0.5f ? positive_weight : 1.0f;
    // Numerically stable BCE: max(z,0) - z*t + log(1+exp(-|z|)).
    const float stable = std::max(z, 0.0f) - z * t + log_terms[i];
    obj_loss += static_cast<double>(w * stable);
    float* g_row = g + i * kWidth;
    g_row[0] = w * (sigma[i] - t) * inv_cells;
    const float* m = mask + i * kBoxOutputs;
    if (!any_box_weight(m)) {
      for (std::size_t c = 0; c < kBoxOutputs; ++c) g_row[1 + c] = masked_grad;
      continue;
    }
    for (std::size_t c = 0; c < kBoxOutputs; ++c) {
      if (m[c] == 0.0f) {
        g_row[1 + c] = masked_grad;
        continue;
      }
      const float diff =
          out[i * kWidth + 1 + c] - box_target[i * kBoxOutputs + c];
      box_loss += static_cast<double>(m[c]) * diff * diff;
      g_row[1 + c] = box_weight * ((2.0f * m[c] * diff) * inv_active);
    }
  }
  DetectorLoss loss;
  loss.objectness = static_cast<float>(obj_loss / static_cast<double>(cells));
  loss.box = active == 0.0 ? 0.0f : static_cast<float>(box_loss / active);
  return loss;
}

std::size_t DetectorTrainConfig::effective_epochs(std::size_t frames) const {
  if (reference_frames == 0 || frames == 0 || frames >= reference_frames) {
    return epochs;
  }
  const std::size_t scaled = epochs * reference_frames / frames;
  return std::min(scaled, epochs * 6);
}

DetectorTrainResult train_detector(
    GridDetector& detector, const std::vector<const world::Frame*>& frames,
    const DetectorTrainConfig& config, Rng& rng,
    const std::function<bool()>& stop) {
  ANOLE_CHECK_GE(config.frames_per_batch, 1u,
                 "train_detector: frames_per_batch == 0 would never advance");
  ANOLE_CHECK(config.learning_rate > 0.0,
              "train_detector: learning_rate must be positive, got ",
              config.learning_rate);
  const auto positive_weight = static_cast<float>(config.positive_weight);
  ANOLE_CHECK_GT(positive_weight, 0.0f,
                 "train_detector: positive_weight must be > 0");
  DetectorTrainResult result;
  result.frames_seen = frames.size();
  if (frames.empty()) return result;

  nn::Sequential& net = detector.network();
  net.set_training(true);
  nn::Adam optimizer(net.parameters(), config.learning_rate, 0.9, 0.999,
                     1e-8, config.weight_decay);

  // Featurize every frame once up front, in the compact layout: inputs
  // and targets are pure functions of the frame, and rebuilding them per
  // batch per epoch used to dominate the non-GEMM training profile, while
  // caching whole input rows held the frame's context once per cell.
  std::vector<CompactFrame> cache;
  cache.reserve(frames.size());
  for (const world::Frame* frame : frames) {
    ANOLE_CHECK_NOTNULL(frame, "train_detector: null frame pointer");
    cache.push_back(compact_frame(*frame));
  }

  const std::size_t epochs = config.effective_epochs(frames.size());
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (stop && stop()) {
      result.stopped = true;
      break;
    }
    auto order = random_permutation(frames.size(), rng);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += config.frames_per_batch) {
      const std::size_t end =
          std::min(start + config.frames_per_batch, order.size());
      DetectorBatch batch = stack_batch(
          cache,
          std::span<const std::size_t>(order).subspan(start, end - start));
      const Tensor outputs = net.forward(std::move(batch.inputs));
      Tensor grad;
      const DetectorLoss loss = detector_loss(
          outputs, batch.targets, positive_weight, config.box_loss_weight,
          grad);
      net.accumulate_gradients(grad);
      optimizer.step();
      epoch_loss += loss.objectness + config.box_loss_weight * loss.box;
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
