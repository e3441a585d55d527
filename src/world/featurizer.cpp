#include "world/featurizer.hpp"

#include <algorithm>
#include <cmath>

#include "util/parallel.hpp"

namespace anole::world {
namespace {

void write_descriptor(const Frame& frame, std::span<float> out) {
  const std::size_t cells = frame.cell_count();
  // Per-channel mean and stddev.
  for (std::size_t c = 0; c < kCellChannels; ++c) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < cells; ++i) {
      const float v = frame.cells.at(i, c);
      sum += v;
      sum_sq += static_cast<double>(v) * v;
    }
    const double mean = sum / static_cast<double>(cells);
    const double var =
        std::max(0.0, sum_sq / static_cast<double>(cells) - mean * mean);
    out[c] = static_cast<float>(mean);
    out[kCellChannels + c] = static_cast<float>(std::sqrt(var));
  }
  // Luminance histogram over per-cell mean of the luminance block,
  // range [-0.25, 1.25].
  constexpr double kLo = -0.25;
  constexpr double kHi = 1.25;
  const std::size_t bins = FrameFeaturizer::kHistogramBins;
  std::vector<double> counts(bins, 0.0);
  for (std::size_t i = 0; i < cells; ++i) {
    double lum = 0.0;
    for (std::size_t c = 0; c < kBlockChannels; ++c) {
      lum += frame.cells.at(i, c);
    }
    lum /= static_cast<double>(kBlockChannels);
    const double clamped = std::clamp(lum, kLo, kHi - 1e-9);
    const auto bin = static_cast<std::size_t>((clamped - kLo) / (kHi - kLo) *
                                              static_cast<double>(bins));
    counts[bin] += 1.0;
  }
  for (std::size_t b = 0; b < bins; ++b) {
    out[2 * kCellChannels + b] =
        static_cast<float>(counts[b] / static_cast<double>(cells));
  }
}

}  // namespace

Tensor FrameFeaturizer::featurize(const Frame& frame) const {
  Tensor out = Tensor::matrix(1, feature_count());
  write_descriptor(frame, out.row(0));
  return out;
}

Tensor FrameFeaturizer::featurize_batch(
    const std::vector<const Frame*>& frames) const {
  Tensor out = Tensor::uninitialized(Shape{frames.size(), feature_count()});
  // A task fan-out over frames: disjoint output rows, so safe and
  // deterministic at any thread count. Eight frames per chunk keep a
  // chunk well above the cost of waking a worker.
  par::parallel_for(0, frames.size(), 8, [&](std::size_t i) {
    write_descriptor(*frames[i], out.row(i));
  });
  return out;
}

}  // namespace anole::world
