#include "world/featurizer.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/parallel.hpp"

namespace anole::world {

void write_channel_moments(const Frame& frame, std::span<float> out) {
  ANOLE_DCHECK(out.size() >= kChannelMoments,
               "write_channel_moments: output holds ", out.size(),
               " floats, need ", kChannelMoments);
  const std::size_t cells = frame.cell_count();
  ANOLE_CHECK(frame.cells.rank() == 2 && frame.cells.rows() == cells &&
                  frame.cells.cols() == kCellChannels,
              "write_channel_moments: frame cell tensor shape ",
              shape_to_string(frame.cells.shape()), " does not match grid ",
              frame.grid_size, "x", frame.grid_size);
  const float* cp = frame.cells.data().data();
  double sum[kCellChannels] = {};
  double sum_sq[kCellChannels] = {};
  for (std::size_t i = 0; i < cells; ++i) {
    const float* cell = cp + i * kCellChannels;
    for (std::size_t c = 0; c < kCellChannels; ++c) {
      const float v = cell[c];
      sum[c] += v;
      sum_sq[c] += static_cast<double>(v) * v;
    }
  }
  for (std::size_t c = 0; c < kCellChannels; ++c) {
    const double mean = sum[c] / static_cast<double>(cells);
    const double var =
        std::max(0.0, sum_sq[c] / static_cast<double>(cells) - mean * mean);
    out[c] = static_cast<float>(mean);
    out[kCellChannels + c] = static_cast<float>(std::sqrt(var));
  }
}

namespace {

void write_descriptor(const Frame& frame, std::span<float> out) {
  write_channel_moments(frame, out);
  // Luminance histogram over per-cell mean of the luminance block,
  // range [-0.25, 1.25].
  constexpr double kLo = -0.25;
  constexpr double kHi = 1.25;
  constexpr std::size_t kBins = FrameFeaturizer::kHistogramBins;
  const std::size_t cells = frame.cell_count();
  const float* cp = frame.cells.data().data();
  double counts[kBins] = {};
  for (std::size_t i = 0; i < cells; ++i) {
    const float* cell = cp + i * kCellChannels;
    double lum = 0.0;
    for (std::size_t c = 0; c < kBlockChannels; ++c) lum += cell[c];
    lum /= static_cast<double>(kBlockChannels);
    const double clamped = std::clamp(lum, kLo, kHi - 1e-9);
    const auto bin = static_cast<std::size_t>((clamped - kLo) / (kHi - kLo) *
                                              static_cast<double>(kBins));
    counts[bin] += 1.0;
  }
  for (std::size_t b = 0; b < kBins; ++b) {
    out[kChannelMoments + b] =
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
