// Global frame descriptor used as input to the scene encoder (M_scene) and
// the decision model (M_decision): per-channel means and spreads plus a
// luminance histogram. In the paper this role is played by raw pixels fed
// to a ResNet18; here the descriptor is the fixed "stem" and the learned
// encoder sits on top.
#pragma once

#include <span>
#include <vector>

#include "tensor/tensor.hpp"
#include "world/frame.hpp"
#include "world/scene_style.hpp"

namespace anole::world {

/// Number of per-channel frame statistics: a mean and a stddev for each of
/// the kCellChannels cell channels.
inline constexpr std::size_t kChannelMoments = 2 * kCellChannels;

/// Writes the per-channel mean (out[c]) and population stddev
/// (out[kCellChannels + c]) of `frame`'s cells into `out`, which must hold
/// kChannelMoments floats. One row-major sweep; each channel accumulates
/// in double, in ascending cell order. This is both the head of the
/// FrameFeaturizer descriptor and the detector's per-cell context, so the
/// two agree bit for bit.
void write_channel_moments(const Frame& frame, std::span<float> out);

class FrameFeaturizer {
 public:
  /// Number of luminance histogram bins in the descriptor.
  static constexpr std::size_t kHistogramBins = 8;

  /// Descriptor width: mean + stddev per channel, plus the histogram.
  static constexpr std::size_t feature_count() {
    return kChannelMoments + kHistogramBins;
  }

  /// Descriptor of one frame as a [1, feature_count] matrix row.
  Tensor featurize(const Frame& frame) const;

  /// Descriptors of many frames stacked into [n, feature_count].
  Tensor featurize_batch(const std::vector<const Frame*>& frames) const;
};

}  // namespace anole::world
