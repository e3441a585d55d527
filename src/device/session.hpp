// DeviceSession: a simulated on-device inference timeline.
//
// Replays a frame stream against a device profile, charging framework
// initialization on the first load, weight-streaming time on every model
// load (cache misses), decision-model time per frame, and detector time
// per frame — producing the per-frame latency series of Fig. 4(a) and the
// end-to-end latency numbers of Table IV / Fig. 10.
//
// Fault-aware accounting (DESIGN.md §9): failed load attempts re-stream
// weights (`FrameCost::retried_weight_mb`), an injected I/O latency spike
// (site `load_latency_spike`) multiplies a frame's load time by the
// armed magnitude, and frames may carry a deadline whose overruns the
// session counts.
#pragma once

#include <cstdint>
#include <vector>

#include "core/drift.hpp"
#include "core/engine.hpp"
#include "core/governor.hpp"
#include "device/profile.hpp"
#include "util/fault.hpp"

namespace anole::device {

struct FrameCost {
  /// Decision/selection compute for this frame (0 for single-model runs).
  std::uint64_t decision_flops = 0;
  /// Detector compute for this frame.
  std::uint64_t detector_flops = 0;
  /// Paper-equivalent MB of weights loaded synchronously this frame
  /// (0 when the cache hit).
  double loaded_weight_mb = 0.0;
  /// Paper-equivalent MB re-streamed by failed load attempts this frame
  /// (retry cost of the degradation ladder; 0 on a clean load).
  double retried_weight_mb = 0.0;
  /// Latency budget for this frame in ms; 0 disables the deadline check.
  double deadline_ms = 0.0;
  /// True when the weights streamed this frame were int8-quantized
  /// (artifact v3 sections); purely an accounting tag — the MB fields
  /// above already reflect the smaller payload.
  bool quantized = false;
};

/// The bill for one frame the engine served: the decision model unless
/// the ranking was reused, the served detector, that detector's
/// paper-equivalent MB once if its load succeeded, and once more per
/// failed attempt (an abandoned load pays for every attempt). A shed
/// frame (`health.frame_dropped`) ran nothing and must not be billed;
/// it fails an ANOLE_CHECK.
FrameCost frame_cost(const core::AnoleSystem& system,
                     const core::EngineResult& result,
                     const MemoryModel& memory, double deadline_ms);

class DeviceSession {
 public:
  /// `faults` (optional, site `load_latency_spike`) injects I/O latency
  /// spikes into frames that stream weights; it must outlive the session.
  /// `governor` (optional) receives one observe() per processed frame so
  /// it can react to overload; it must outlive the session.
  /// `drift` (optional) receives one observe_latency() per processed
  /// frame (latency-regime change detection, DESIGN.md §14); it must
  /// outlive the session.
  DeviceSession(const DeviceProfile& profile, double throughput_scale = 1.0,
                fault::FaultInjector* faults = nullptr,
                core::RuntimeGovernor* governor = nullptr,
                core::DriftDetector* drift = nullptr);

  /// Charges one frame and returns its end-to-end latency in ms.
  double process(const FrameCost& cost);

  const std::vector<double>& frame_latencies_ms() const {
    return latencies_;
  }

  double total_ms() const { return total_ms_; }
  std::size_t frames() const { return latencies_.size(); }
  double mean_latency_ms() const;

  /// 95th-percentile frame latency (nearest-rank); 0 for empty sessions.
  double p95_latency_ms() const;

  /// Mean latency over the most recent min(n, frames()) frames; 0 for
  /// empty sessions. Requires n >= 1.
  double recent_mean_latency_ms(std::size_t n) const;

  /// Fraction of the most recent min(n, frames()) frames that overran
  /// their deadline; 0 for empty sessions. Requires n >= 1.
  double recent_overrun_rate(std::size_t n) const;

  /// Frames whose latency exceeded their (non-zero) deadline_ms.
  std::size_t deadline_overruns() const { return deadline_overruns_; }
  /// Frames whose load latency was hit by an injected I/O spike.
  std::size_t latency_spikes() const { return latency_spikes_; }
  /// Weight-streaming frames that loaded quantized (int8) sections.
  std::size_t quantized_loads() const { return quantized_loads_; }

  /// Average throughput over the session. Convention: an empty session
  /// reports 0; a non-empty session whose total time is <= 0 ms (all
  /// frames free under the cost model) reports +infinity — "instant", not
  /// "stalled".
  double fps() const;

 private:
  const DeviceProfile profile_;
  double throughput_scale_;
  fault::FaultInjector* faults_;
  core::RuntimeGovernor* governor_;
  core::DriftDetector* drift_;
  bool framework_initialized_ = false;
  std::vector<double> latencies_;
  /// Per-frame deadline-overrun flags, parallel to latencies_.
  std::vector<std::uint8_t> overrun_flags_;
  double total_ms_ = 0.0;
  std::size_t deadline_overruns_ = 0;
  std::size_t latency_spikes_ = 0;
  std::size_t quantized_loads_ = 0;
};

}  // namespace anole::device
