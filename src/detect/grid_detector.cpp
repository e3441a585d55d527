#include "detect/grid_detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "nn/serialize.hpp"
#include "util/check.hpp"
#include "world/featurizer.hpp"
#include "world/scene_style.hpp"

namespace anole::detect {
namespace {

/// Context descriptor width: per-channel mean and stddev of the frame.
constexpr std::size_t kContextFeatures = world::kChannelMoments;

}  // namespace

GridDetectorConfig GridDetectorConfig::compressed(std::string name) {
  GridDetectorConfig config;
  config.hidden = {16};
  config.name = std::move(name);
  return config;
}

GridDetectorConfig GridDetectorConfig::large(std::string name) {
  GridDetectorConfig config;
  config.hidden = {64, 64, 48};
  config.name = std::move(name);
  return config;
}

GridDetector::GridDetector(const GridDetectorConfig& config, Rng& rng,
                           std::size_t grid_size)
    : config_(config), grid_size_(grid_size) {
  ANOLE_CHECK_GE(grid_size, 1u, "GridDetector: grid_size == 0");
  // A threshold above 1 is legal: it suppresses every detection.
  ANOLE_CHECK_GE(config.confidence_threshold, 0.0,
                 "GridDetector: negative confidence_threshold");
  std::vector<std::size_t> widths;
  widths.push_back(input_features());
  for (std::size_t h : config.hidden) widths.push_back(h);
  widths.push_back(kOutputsPerCell);
  network_ = nn::make_mlp(widths, rng);
  network_->set_training(false);
}

std::size_t GridDetector::input_features() {
  // Cell channels + global context + normalized cell coordinates +
  // 3x3-neighborhood mean of the object block (local-peak cue, so the
  // shared head can suppress off-center cells of multi-cell objects).
  return world::kCellChannels + kContextFeatures + 2 + world::kBlockChannels;
}

Tensor GridDetector::build_inputs(const world::Frame& frame) {
  const std::size_t g = frame.grid_size;
  const std::size_t cells = frame.cell_count();
  ANOLE_CHECK(frame.cells.rank() == 2 && frame.cells.rows() == cells &&
                  frame.cells.cols() == world::kCellChannels,
              "GridDetector::build_inputs: frame cell tensor shape ",
              shape_to_string(frame.cells.shape()), " does not match grid ",
              g, "x", g);
  // Hot on both the serving and training paths (every infer featurizes
  // its frame), so the assembly runs on raw row pointers: same values in
  // the same order as the span-per-cell version, minus the per-access
  // span construction and index arithmetic. Every element of every row
  // is written below, so the zero-fill is skipped too.
  const std::size_t features = input_features();
  Tensor inputs = Tensor::uninitialized(Shape{cells, features});
  float context[kContextFeatures];
  world::write_channel_moments(frame, context);
  float* const ip = inputs.data().data();
  const float* const cp = frame.cells.data().data();
  for (std::size_t y = 0; y < g; ++y) {
    for (std::size_t x = 0; x < g; ++x) {
      const std::size_t i = y * g + x;
      float* row = ip + i * features;
      const float* cell = cp + i * world::kCellChannels;
      std::copy(cell, cell + world::kCellChannels, row);
      std::copy(context, context + kContextFeatures,
                row + world::kCellChannels);
      row[world::kCellChannels + kContextFeatures] =
          static_cast<float>(x) / static_cast<float>(g);
      row[world::kCellChannels + kContextFeatures + 1] =
          static_cast<float>(y) / static_cast<float>(g);
      // Neighborhood mean of the object block.
      float neighborhood[world::kBlockChannels] = {};
      int count = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = static_cast<int>(x) + dx;
          const int ny = static_cast<int>(y) + dy;
          if (nx < 0 || ny < 0 || nx >= static_cast<int>(g) ||
              ny >= static_cast<int>(g)) {
            continue;
          }
          const float* neighbor =
              cp + (static_cast<std::size_t>(ny) * g +
                    static_cast<std::size_t>(nx)) *
                       world::kCellChannels;
          for (std::size_t c = 0; c < world::kBlockChannels; ++c) {
            neighborhood[c] += neighbor[2 * world::kBlockChannels + c];
          }
          ++count;
        }
      }
      for (std::size_t c = 0; c < world::kBlockChannels; ++c) {
        row[world::kCellChannels + kContextFeatures + 2 + c] =
            neighborhood[c] / static_cast<float>(count);
      }
    }
  }
  return inputs;
}

GridDetector::Targets GridDetector::build_targets(const world::Frame& frame) {
  const std::size_t g = frame.grid_size;
  Targets targets;
  targets.objectness = Tensor::matrix(frame.cell_count(), 1);
  targets.boxes = Tensor::matrix(frame.cell_count(), 4);
  targets.box_mask = Tensor::matrix(frame.cell_count(), 4);
  for (const auto& obj : frame.objects) {
    const auto x = static_cast<std::size_t>(std::clamp(
        obj.cx * static_cast<double>(g), 0.0, static_cast<double>(g - 1)));
    const auto y = static_cast<std::size_t>(std::clamp(
        obj.cy * static_cast<double>(g), 0.0, static_cast<double>(g - 1)));
    const std::size_t i = y * g + x;
    targets.objectness.at(i, 0) = 1.0f;
    // Offsets of the center within its cell, then absolute size.
    targets.boxes.at(i, 0) = static_cast<float>(
        obj.cx * static_cast<double>(g) - static_cast<double>(x));
    targets.boxes.at(i, 1) = static_cast<float>(
        obj.cy * static_cast<double>(g) - static_cast<double>(y));
    targets.boxes.at(i, 2) = static_cast<float>(obj.w);
    targets.boxes.at(i, 3) = static_cast<float>(obj.h);
    for (std::size_t c = 0; c < 4; ++c) targets.box_mask.at(i, c) = 1.0f;
  }
  return targets;
}

std::vector<Detection> GridDetector::detect(const world::Frame& frame) {
  // Detection never backpropagates (training drives network().forward
  // directly), so the mutable path just delegates to the const one.
  return infer(frame);
}

std::vector<Detection> GridDetector::infer(const world::Frame& frame) const {
  const std::size_t g = frame.grid_size;
  ANOLE_CHECK_EQ(g, grid_size_,
                 "GridDetector::infer: frame grid does not match the grid "
                 "this detector was built for");
  Tensor inputs = build_inputs(frame);
  Tensor outputs = network_->infer(inputs);
  // Logit prefilter: the confidence is monotone in the logit, so a cell
  // whose logit sits more than kLogitMargin below logit(t) has confidence
  // < t and needs no exp. The margin is ~1e4 times expf's relative error
  // and outweighs the double rounding of 1 + exp(-logit) while
  // (1 - t) * kLogitMargin > 2^-52, i.e. 1 - t > 2.5e-13. Closer to 1, and
  // for t <= 0 or t >= 1, every cell takes the exact test below.
  constexpr double kLogitMargin = 1e-3;
  const double t = config_.confidence_threshold;
  const double logit_cutoff =
      t > 0.0 && 1.0 - t > 1e-12
          ? std::log(t / (1.0 - t)) - kLogitMargin
          : -std::numeric_limits<double>::infinity();
  std::vector<Detection> detections;
  for (std::size_t y = 0; y < g; ++y) {
    for (std::size_t x = 0; x < g; ++x) {
      const std::size_t i = y * g + x;
      auto row = outputs.row(i);
      if (static_cast<double>(row[0]) < logit_cutoff) continue;
      const double confidence = 1.0 / (1.0 + std::exp(-row[0]));
      if (confidence < config_.confidence_threshold) continue;
      Detection det;
      det.confidence = confidence;
      const double dx = std::clamp(static_cast<double>(row[1]), 0.0, 1.0);
      const double dy = std::clamp(static_cast<double>(row[2]), 0.0, 1.0);
      det.cx = (static_cast<double>(x) + dx) / static_cast<double>(g);
      det.cy = (static_cast<double>(y) + dy) / static_cast<double>(g);
      det.w = std::clamp(static_cast<double>(row[3]), 0.02, 0.5);
      det.h = std::clamp(static_cast<double>(row[4]), 0.02, 0.5);
      detections.push_back(det);
    }
  }
  return non_maximum_suppression(std::move(detections), config_.nms_threshold,
                                 config_.nms_center_distance);
}

std::uint64_t GridDetector::flops_per_frame() const {
  return network_->flops_per_sample() *
         static_cast<std::uint64_t>(grid_size_ * grid_size_);
}

std::uint64_t GridDetector::weight_bytes() {
  // fp32 networks report the ANOLEWTS blob size (see
  // nn::streamed_weight_bytes); quantized networks report the compact
  // wire size, so cache misses charge ~4x fewer streamed bytes.
  return nn::streamed_weight_bytes(*network_);
}

}  // namespace anole::detect
