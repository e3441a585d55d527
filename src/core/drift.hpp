// DriftDetector: windowed change detection over the decision model's
// confidence stream, plus the on-device response the engine applies when
// the world shifts under it (DESIGN.md §14).
//
// The decision model is trained offline against a fixed scene mix; under
// distribution drift its top-1 suitability confidence collapses long
// before accuracy can be measured on-device (there are no labels at
// runtime). The detector runs a one-sided CUSUM on that confidence
// stream: after a baseline window establishes the clean-regime mean, each
// observation accumulates S = max(0, S + (baseline - confidence - slack))
// and a detection fires when S crosses the threshold. Each detection
// produces a DriftResponse the engine applies on the *next* planned
// frame: the confidence floor is reset to a quantile of the recent
// confidence window, so a floor tuned for the clean regime stops
// misfiring (constantly rerouting to the broadest fallback) once the
// achievable confidence level moves, and the engine drops its cached
// ranking so the next frame re-ranks every model from fresh evidence.
//
// A second CUSUM over observed frame latencies (fed by DeviceSession)
// counts latency-regime shifts; it never produces a serving response —
// overload is the governor's job — but its detections land in the same
// trace. The detector is purely deterministic: no clocks, no Rng, one
// observation per decision-model run, so for a fixed observation sequence
// the event trace and its FNV-1a hash are bitwise identical across runs
// and thread counts. An engine or session given no detector (a null
// `drift` pointer) runs the unadapted timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace anole::core {

struct DriftConfig {
  /// Sliding window of confidence observations used for recalibration.
  std::size_t window = 48;
  /// Observations used to establish the clean-regime baseline mean before
  /// the CUSUM arms (and to re-baseline after a detection).
  std::size_t baseline_window = 48;
  /// CUSUM slack (allowance): confidence dips smaller than this above the
  /// baseline mean never accumulate.
  double cusum_slack = 0.04;
  /// CUSUM detection threshold (accumulated confidence mass).
  double cusum_threshold = 1.25;
  /// Minimum observations between two confidence detections.
  std::size_t min_separation = 32;
  /// Quantile of the recent confidence window the floor recalibrates to.
  double recalibration_quantile = 0.25;
  /// Scale applied below the quantile so the recalibrated floor sits
  /// under the new regime's typical confidence instead of on top of it.
  double recalibration_scale = 0.8;
  /// Latency CUSUM slack in ms and threshold (accumulated ms).
  double latency_slack_ms = 4.0;
  double latency_threshold_ms = 120.0;
};

/// What kind of event a trace entry records.
enum class DriftEventKind : std::uint8_t {
  /// Confidence CUSUM crossed its threshold (a serving response follows).
  kConfidenceShift = 0,
  /// Latency CUSUM crossed its threshold (informational).
  kLatencyShift,
};

const char* to_string(DriftEventKind kind);

/// One detection, in observation order — the replayable trace.
struct DriftEvent {
  DriftEventKind kind = DriftEventKind::kConfidenceShift;
  /// Observation index (confidence or latency stream) of the detection.
  std::uint64_t observation = 0;
  /// Kind-specific detail: recalibrated floor (confidence, per-mille) or
  /// accumulated CUSUM mass at detection (latency, ms, rounded).
  std::uint64_t detail = 0;
};

/// The serving response produced by a confidence detection, applied by
/// the engine on its next planned frame.
struct DriftResponse {
  /// New confidence floor (already quantile-recalibrated); < 0 means the
  /// window was empty and the floor is left unchanged.
  double recalibrated_floor = -1.0;
};

class DriftDetector {
 public:
  explicit DriftDetector(DriftConfig config = {});

  /// One observation per decision-model run (fresh rankings only —
  /// dropped frames and throttled ranking reuses produce no new decision
  /// evidence).
  void observe_confidence(double top1_confidence);

  /// One observation per executed frame's measured latency (fed by
  /// DeviceSession). Never produces a serving response.
  void observe_latency(double latency_ms);

  /// True when a confidence detection has fired and its response has not
  /// been consumed yet.
  bool response_pending() const { return response_pending_; }

  /// Consumes the pending response (engine-side, next planned frame).
  DriftResponse take_response();

  const DriftConfig& config() const { return config_; }

  /// Confidence observations / latency observations so far.
  std::uint64_t confidence_observations() const { return conf_observed_; }
  std::uint64_t latency_observations() const { return lat_observed_; }
  /// Confidence detections (each produced one response).
  std::uint64_t detections() const { return detections_; }
  /// Latency-regime detections (informational).
  std::uint64_t latency_detections() const { return latency_detections_; }

  /// Current confidence CUSUM mass and baseline mean (0 until armed).
  double cusum() const { return cusum_; }
  double baseline_mean() const { return baseline_mean_; }

  /// Every detection, in observation order.
  const std::vector<DriftEvent>& trace() const { return trace_; }

  /// FNV-1a hash of the trace; equal hashes across two runs mean the
  /// detector fired bitwise-identical detections.
  std::uint64_t trace_hash() const;

  /// Clears all state (windows, CUSUMs, trace); the config is kept.
  void reset();

 private:
  void detect_confidence_shift();

  DriftConfig config_;
  /// Ring buffer over the last `config_.window` observations.
  std::vector<double> conf_window_;
  std::size_t window_next_ = 0;
  std::size_t window_filled_ = 0;
  /// Baseline accumulation (restarts after every detection).
  double baseline_sum_ = 0.0;
  std::size_t baseline_count_ = 0;
  double baseline_mean_ = 0.0;
  bool baseline_ready_ = false;
  double cusum_ = 0.0;
  std::uint64_t conf_observed_ = 0;
  std::uint64_t last_detection_at_ = 0;
  /// Latency CUSUM (same baseline-then-accumulate structure).
  double lat_baseline_sum_ = 0.0;
  std::size_t lat_baseline_count_ = 0;
  double lat_baseline_mean_ = 0.0;
  bool lat_baseline_ready_ = false;
  double lat_cusum_ = 0.0;
  std::uint64_t lat_observed_ = 0;
  std::uint64_t detections_ = 0;
  std::uint64_t latency_detections_ = 0;
  bool response_pending_ = false;
  DriftResponse pending_;
  std::vector<DriftEvent> trace_;
};

}  // namespace anole::core
