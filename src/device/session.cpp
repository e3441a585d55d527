#include "device/session.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace anole::device {

DeviceSession::DeviceSession(const DeviceProfile& profile,
                             double throughput_scale,
                             fault::FaultInjector* faults,
                             core::RuntimeGovernor* governor,
                             core::DriftDetector* drift)
    : profile_(profile), throughput_scale_(throughput_scale),
      faults_(faults),
      governor_(core::governor_enabled_from_env() ? governor : nullptr),
      drift_(core::drift_enabled_from_env() ? drift : nullptr) {}

FrameCost frame_cost(const core::AnoleSystem& system,
                     const core::EngineResult& result,
                     const MemoryModel& memory, double deadline_ms) {
  ANOLE_CHECK(!result.health.frame_dropped,
              "frame_cost: a shed frame ran nothing and is never billed");
  detect::GridDetector& detector =
      *system.repository.model(result.served_model).detector;
  const double weight_mb = memory.load_mb(detector.weight_bytes());
  const std::size_t loaded = result.model_loaded ? 1 : 0;
  ANOLE_CHECK_GE(result.health.load_attempts, loaded,
                 "frame_cost: a loaded model took at least one attempt");
  FrameCost cost;
  cost.decision_flops =
      result.ranking_reused ? 0 : system.decision->flops_per_sample();
  cost.detector_flops = detector.flops_per_frame();
  cost.loaded_weight_mb = result.model_loaded ? weight_mb : 0.0;
  cost.retried_weight_mb =
      static_cast<double>(result.health.load_attempts - loaded) * weight_mb;
  cost.deadline_ms = deadline_ms;
  cost.quantized = result.model_loaded && result.health.served_quantized;
  return cost;
}

double DeviceSession::process(const FrameCost& cost) {
  double latency = 0.0;
  const double streamed_mb = cost.loaded_weight_mb + cost.retried_weight_mb;
  if (streamed_mb > 0.0) {
    double load_ms =
        profile_.load_latency_ms(streamed_mb,
                                 /*first_load=*/!framework_initialized_);
    framework_initialized_ = true;
    // Injected I/O stall: the whole load (including retries) slows down
    // by the armed magnitude — a contended flash/NVMe read, not a crash.
    if (faults_ != nullptr &&
        faults_->should_fail(fault::Site::kLoadLatencySpike,
                             latencies_.size())) {
      load_ms *= faults_->magnitude(fault::Site::kLoadLatencySpike);
      ++latency_spikes_;
    }
    latency += load_ms;
    if (cost.quantized) ++quantized_loads_;
  }
  if (cost.decision_flops > 0) {
    latency += profile_.inference_latency_ms(cost.decision_flops,
                                             throughput_scale_);
  }
  latency +=
      profile_.inference_latency_ms(cost.detector_flops, throughput_scale_);
  const bool overrun = cost.deadline_ms > 0.0 && latency > cost.deadline_ms;
  if (overrun) ++deadline_overruns_;
  latencies_.push_back(latency);
  overrun_flags_.push_back(overrun ? 1 : 0);
  total_ms_ += latency;
  if (governor_ != nullptr) governor_->observe(latency, overrun);
  if (drift_ != nullptr) drift_->observe_latency(latency);
  return latency;
}

double DeviceSession::mean_latency_ms() const {
  if (latencies_.empty()) return 0.0;
  return total_ms_ / static_cast<double>(latencies_.size());
}

double DeviceSession::p95_latency_ms() const {
  if (latencies_.empty()) return 0.0;
  // Nearest-rank percentile: ceil(0.95 * n)-th smallest value. The rank
  // is clamped into [1, n] so single-frame sessions (ceil(0.95) = 1) and
  // any future percentile tweak stay in bounds.
  std::vector<double> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t rank = std::clamp<std::size_t>((n * 95 + 99) / 100, 1, n);
  return sorted[rank - 1];
}

double DeviceSession::recent_mean_latency_ms(std::size_t n) const {
  ANOLE_CHECK_GE(n, 1u, "recent_mean_latency_ms: window must be >= 1");
  if (latencies_.empty()) return 0.0;
  const std::size_t take = std::min(n, latencies_.size());
  double sum = 0.0;
  for (std::size_t i = latencies_.size() - take; i < latencies_.size(); ++i) {
    sum += latencies_[i];
  }
  return sum / static_cast<double>(take);
}

double DeviceSession::recent_overrun_rate(std::size_t n) const {
  ANOLE_CHECK_GE(n, 1u, "recent_overrun_rate: window must be >= 1");
  if (overrun_flags_.empty()) return 0.0;
  const std::size_t take = std::min(n, overrun_flags_.size());
  std::size_t overruns = 0;
  for (std::size_t i = overrun_flags_.size() - take; i < overrun_flags_.size();
       ++i) {
    overruns += overrun_flags_[i];
  }
  return static_cast<double>(overruns) / static_cast<double>(take);
}

double DeviceSession::fps() const {
  if (latencies_.empty()) return 0.0;
  if (total_ms_ <= 0.0) return std::numeric_limits<double>::infinity();
  return 1000.0 * static_cast<double>(latencies_.size()) / total_ms_;
}

}  // namespace anole::device
