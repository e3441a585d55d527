#include "core/drift.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace anole::core {

const char* to_string(DriftEventKind kind) {
  switch (kind) {
    case DriftEventKind::kConfidenceShift:
      return "confidence_shift";
    case DriftEventKind::kLatencyShift:
      return "latency_shift";
  }
  return "unknown";
}

DriftDetector::DriftDetector(DriftConfig config) : config_(config) {
  ANOLE_CHECK_GE(config.window, 2u, "DriftDetector: window must be >= 2");
  ANOLE_CHECK_GE(config.baseline_window, 1u,
                 "DriftDetector: baseline_window must be >= 1");
  ANOLE_CHECK_GT(config.cusum_threshold, 0.0,
                 "DriftDetector: cusum_threshold must be > 0");
  ANOLE_CHECK_GE(config.cusum_slack, 0.0,
                 "DriftDetector: negative cusum_slack");
  ANOLE_CHECK(config.recalibration_quantile >= 0.0 &&
                  config.recalibration_quantile <= 1.0,
              "DriftDetector: recalibration_quantile must be in [0, 1]");
  ANOLE_CHECK_GT(config.latency_threshold_ms, 0.0,
                 "DriftDetector: latency_threshold_ms must be > 0");
  conf_window_.resize(config.window, 0.0);
}

void DriftDetector::observe_confidence(double top1_confidence) {
  // A corrupt (sanitized-negative) confidence is already an anomaly the
  // fault ladder accounts for; clamp so one poisoned frame cannot dump a
  // full threshold of CUSUM mass by itself.
  const double confidence = std::clamp(top1_confidence, 0.0, 1.0);

  conf_window_[window_next_] = confidence;
  window_next_ = (window_next_ + 1) % conf_window_.size();
  window_filled_ = std::min(window_filled_ + 1, conf_window_.size());
  ++conf_observed_;

  if (!baseline_ready_) {
    baseline_sum_ += confidence;
    if (++baseline_count_ >= config_.baseline_window) {
      baseline_mean_ =
          baseline_sum_ / static_cast<double>(baseline_count_);
      baseline_ready_ = true;
      cusum_ = 0.0;
    }
    return;
  }

  // One-sided CUSUM for a downward confidence shift.
  cusum_ = std::max(
      0.0, cusum_ + (baseline_mean_ - confidence - config_.cusum_slack));
  if (cusum_ >= config_.cusum_threshold &&
      conf_observed_ - last_detection_at_ >= config_.min_separation) {
    detect_confidence_shift();
  }
}

void DriftDetector::detect_confidence_shift() {
  ++detections_;
  last_detection_at_ = conf_observed_;

  const std::size_t n = conf_window_.size();
  const std::size_t start =
      window_filled_ < n ? 0 : window_next_;  // oldest entry

  // Recalibrated floor: a quantile of the *newest quarter* of the window,
  // scaled down. At detection time the ring is still dominated by
  // pre-shift samples; the floor must track the regime the stream just
  // entered, not the one it left.
  const std::size_t recent_count = std::min(
      window_filled_, std::max<std::size_t>(2, window_filled_ / 4));
  std::vector<double> recent;
  recent.reserve(recent_count);
  for (std::size_t i = window_filled_ - recent_count; i < window_filled_;
       ++i) {
    recent.push_back(conf_window_[(start + i) % n]);
  }
  std::sort(recent.begin(), recent.end());
  const auto rank = static_cast<std::size_t>(
      config_.recalibration_quantile *
      static_cast<double>(recent.size() - 1));
  const double floor = recent[rank] * config_.recalibration_scale;

  pending_ = DriftResponse{floor};
  response_pending_ = true;

  trace_.push_back(DriftEvent{
      DriftEventKind::kConfidenceShift, conf_observed_,
      static_cast<std::uint64_t>(std::max(0.0, floor) * 1000.0)});

  // Re-baseline on the new regime so a second, later shift is detectable
  // relative to where the stream settled, not the original clean world.
  baseline_sum_ = 0.0;
  baseline_count_ = 0;
  baseline_ready_ = false;
  cusum_ = 0.0;
}

void DriftDetector::observe_latency(double latency_ms) {
  ++lat_observed_;
  if (!lat_baseline_ready_) {
    lat_baseline_sum_ += latency_ms;
    if (++lat_baseline_count_ >= config_.baseline_window) {
      lat_baseline_mean_ =
          lat_baseline_sum_ / static_cast<double>(lat_baseline_count_);
      lat_baseline_ready_ = true;
      lat_cusum_ = 0.0;
    }
    return;
  }
  // One-sided CUSUM for an upward latency shift.
  lat_cusum_ = std::max(
      0.0, lat_cusum_ + (latency_ms - lat_baseline_mean_ -
                         config_.latency_slack_ms));
  if (lat_cusum_ >= config_.latency_threshold_ms) {
    ++latency_detections_;
    trace_.push_back(
        DriftEvent{DriftEventKind::kLatencyShift, lat_observed_,
                   static_cast<std::uint64_t>(lat_cusum_)});
    lat_baseline_sum_ = 0.0;
    lat_baseline_count_ = 0;
    lat_baseline_ready_ = false;
    lat_cusum_ = 0.0;
  }
}

DriftResponse DriftDetector::take_response() {
  ANOLE_CHECK(response_pending_,
              "DriftDetector::take_response: no pending response");
  response_pending_ = false;
  return pending_;
}

std::uint64_t DriftDetector::trace_hash() const {
  Fnv1a hash;
  for (const DriftEvent& event : trace_) {
    hash.mix(static_cast<std::uint64_t>(event.kind));
    hash.mix(event.observation);
    hash.mix(event.detail);
  }
  return hash.value();
}

void DriftDetector::reset() {
  std::fill(conf_window_.begin(), conf_window_.end(), 0.0);
  window_next_ = 0;
  window_filled_ = 0;
  baseline_sum_ = 0.0;
  baseline_count_ = 0;
  baseline_mean_ = 0.0;
  baseline_ready_ = false;
  cusum_ = 0.0;
  conf_observed_ = 0;
  last_detection_at_ = 0;
  lat_baseline_sum_ = 0.0;
  lat_baseline_count_ = 0;
  lat_baseline_mean_ = 0.0;
  lat_baseline_ready_ = false;
  lat_cusum_ = 0.0;
  lat_observed_ = 0;
  detections_ = 0;
  latency_detections_ = 0;
  response_pending_ = false;
  pending_ = DriftResponse{};
  trace_.clear();
}

}  // namespace anole::core
