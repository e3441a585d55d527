// Online Model Inference (OMI, paper section V): per-frame model selection
// (MSS), cache-based deployment (CMD), and model inference (MI), plus an
// optional extension the paper motivates: a decision-confidence fallback
// for samples outside every model's distribution (problem-formulation
// case 3). MSS ranks every frame from that frame's suitability vector
// alone; no suitability state carries from one frame to the next.
//
// The online path is fault-tolerant (DESIGN.md §9): model loads can fail
// (bounded retry + quarantine in the cache), suitability vectors are
// guarded against non-finite entries, corrupt frame payloads degrade to
// empty detections, and a pinned fallback model serves whenever nothing
// else is admissible. Faults are injected deterministically through
// util/fault.hpp — per AnoleEngine, from EngineConfig::faults or the
// ANOLE_FAULTS environment variable — and every frame carries a health
// record of what degraded.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/decision_model.hpp"
#include "core/drift.hpp"
#include "core/governor.hpp"
#include "core/model_cache.hpp"
#include "core/repository.hpp"
#include "util/fault.hpp"

namespace anole::core {

/// The downloadable artifact set produced by offline scene profiling:
/// scene encoder, compressed-model repository, and decision model.
struct AnoleSystem {
  std::unique_ptr<SceneEncoder> encoder;
  SemanticSceneIndex scene_index;
  ModelRepository repository;
  std::unique_ptr<DecisionModel> decision;
  /// Models whose artifact sections were corrupt at load time; their
  /// repository slots hold placeholders and the engine quarantines them
  /// permanently (core/artifact partial-load recovery).
  std::vector<std::size_t> damaged_models;

  std::size_t model_count() const { return repository.size(); }
};

struct EngineConfig {
  CacheConfig cache;
  /// When the top-1 suitability probability falls below this
  /// floor, the frame is treated as outside every Psi_i and served by the
  /// broadest model in the repository (the paper's case-3 best effort).
  /// 0 disables the fallback.
  double confidence_floor = 0.0;
  /// Fault injector driving this engine's failure schedule. When null,
  /// the engine builds one from the ANOLE_FAULTS environment variable
  /// (and runs fault-free when that is unset).
  std::shared_ptr<fault::FaultInjector> faults;
  /// Overload governor consulted once per frame (DESIGN.md §11). Null
  /// (the default) means ungoverned. Not owned; must outlive the engine.
  core::RuntimeGovernor* governor = nullptr;
  /// Drift detector fed one confidence observation per decision-model run
  /// (DESIGN.md §14); its responses recalibrate the confidence floor and
  /// force a re-rank. Null (the default) means no drift response. Not
  /// owned; must outlive the engine.
  core::DriftDetector* drift = nullptr;
};

/// Everything that happened while processing one frame.
struct EngineResult {
  /// Per-frame degradation record (all false/empty on a healthy frame).
  struct Health {
    /// Load attempts made by the cache (0 = no load needed).
    std::size_t load_attempts = 0;
    /// True when every load attempt failed and the load was abandoned.
    bool load_abandoned = false;
    /// True when the suitability vector contained non-finite entries
    /// (sanitized to "unsuitable" before ranking).
    bool nonfinite_suitability = false;
    /// True when the frame payload was corrupt; detections are empty.
    bool payload_corrupt = false;
    /// True when the pinned fallback served because no ranked model was
    /// admissible.
    bool served_degraded = false;
    /// Model newly quarantined while processing this frame, if any.
    std::optional<std::size_t> quarantined;
    /// True when the serving detector ran int8-quantized layers (the
    /// artifact v3 int8 path); false for fp32 or payload-corrupt frames.
    bool served_quantized = false;
    /// True when the governor shed this frame: no detector ran,
    /// detections are empty, served_model repeats the previous frame.
    bool frame_dropped = false;
    /// True when a top-1 miss did not stream its model — the governor
    /// suppressed the swap (or the byte budget refused an oversized
    /// load) and the best resident model served instead.
    bool swap_suppressed = false;
    /// True when a pending drift response was applied while planning this
    /// frame (ranking refresh forced).
    bool drift_detected = false;
    /// True when that response also recalibrated the confidence floor.
    bool drift_recalibrated = false;
  };

  std::vector<detect::Detection> detections;
  /// Model that actually served the frame.
  std::size_t served_model = 0;
  /// Top-1 model per the decision ranking.
  std::size_t top1_model = 0;
  /// Suitability probability of the top-1 model.
  double top1_confidence = 0.0;
  bool cache_hit = false;
  /// True when a model load was triggered this frame.
  bool model_loaded = false;
  /// True when the served model differs from the previous frame's.
  bool model_switched = false;
  /// True when the confidence fallback replaced the decision's choice.
  bool low_confidence = false;
  /// True when the governor reused the previous frame's decision ranking
  /// instead of running the MSS tail (throttled ranking refresh).
  bool ranking_reused = false;
  /// Governor state this frame was planned under (kNormal when
  /// ungoverned).
  core::GovernorState governor_state = core::GovernorState::kNormal;
  Health health;
};

class AnoleEngine {
 public:
  /// `system` must outlive the engine.
  AnoleEngine(AnoleSystem& system, const EngineConfig& config);
  AnoleEngine(AnoleSystem& system, const CacheConfig& cache_config);

  EngineResult process(const world::Frame& frame);

  /// Processes `frames` in stream order in three stages. Featurization
  /// and the decision model's embedding run once over the whole batch
  /// (batched matmuls). The stateful plan stage (governor directives,
  /// drift responses, cache admission, every fault draw and counter)
  /// then runs sequentially in frame order. Finally the detect stage fans
  /// out across frames through the const Detector::infer path — per-frame
  /// detections depend only on that frame's planned model, and nested
  /// tensor kernels use thread-count-invariant chunking — so the results,
  /// and any injected fault schedule, are bitwise identical to calling
  /// process() frame by frame at any thread count.
  std::vector<EngineResult> process_batch(
      const std::vector<const world::Frame*>& frames);

  const ModelCache& cache() const { return cache_; }
  std::size_t model_switches() const { return switches_; }
  std::size_t frames_processed() const { return frames_; }
  std::size_t low_confidence_frames() const { return low_confidence_; }

  /// The model served when confidence falls below the floor: the broadest
  /// accepted model (most scene classes, ties by validation F1) that is
  /// not damaged. Also the cache's pinned fallback.
  std::size_t fallback_model() const { return fallback_model_; }

  /// Per-model counts of being ranked top-1 (the utility of Fig. 4b).
  const std::vector<std::size_t>& top1_counts() const { return top1_counts_; }

  /// --- degradation ladder counters ---

  /// Frames whose suitability vector carried non-finite entries.
  std::size_t nonfinite_frames() const { return nonfinite_frames_; }
  /// Frames whose payload was corrupt (served with empty detections).
  std::size_t payload_corrupt_frames() const {
    return payload_corrupt_frames_;
  }
  /// Frames served by the pinned fallback because nothing ranked was
  /// admissible.
  std::size_t degraded_frames() const { return degraded_frames_; }

  /// --- active-precision introspection (artifact v3) ---

  /// Frames whose serving detector ran int8.
  std::size_t quantized_frames() const { return quantized_frames_; }

  /// --- governor introspection (DESIGN.md §11) ---

  /// Frames shed by the governor (no detector ran).
  std::size_t dropped_frames() const { return dropped_frames_; }
  /// Top-1 misses whose model swap was suppressed (throttle or budget).
  std::size_t swap_suppressed_frames() const {
    return swap_suppressed_frames_;
  }
  /// Frames that reused the previous decision ranking.
  std::size_t reused_ranking_frames() const {
    return reused_ranking_frames_;
  }

  /// --- drift introspection (DESIGN.md §14) ---

  /// Frames whose planning applied a drift response.
  std::size_t drift_responses() const { return drift_responses_; }
  /// Drift responses that recalibrated the confidence floor.
  std::size_t drift_recalibrations() const { return drift_recalibrations_; }
  /// The confidence floor currently in effect (config value until a drift
  /// response recalibrates it).
  double effective_confidence_floor() const { return effective_floor_; }
  /// True when the M_decision head currently carries int8 layers.
  bool decision_quantized() const;
  /// True when detector `model` currently carries int8 layers.
  bool model_quantized(std::size_t model) const;

  /// This engine's injector; null when running fault-free.
  const fault::FaultInjector* faults() const { return faults_.get(); }
  fault::FaultInjector* faults() { return faults_.get(); }

 private:
  /// Shared tail of process()/process_batch(): everything after the
  /// suitability probabilities for one frame are known.
  EngineResult process_with_suitability(const world::Frame& frame,
                                        std::span<const float> probs);

  /// Stateful plan stage for one frame: governor directive, MSS ranking
  /// (or throttled reuse), cache admission, every fault draw and counter
  /// update — everything except running the detector. Must be called in
  /// frame order. Returns the model to run detection with, or nullopt
  /// when no detector runs (shed frame or corrupt payload); the detect
  /// stage itself is const (Detector::infer) and may fan out.
  std::optional<std::size_t> plan_with_suitability(
      EngineResult& result, std::span<const float> probs);

  /// MSS tail: NaN guard, ranking sort, confidence fallback.
  /// Fills the top-1 fields of `result` and stores the ranking for
  /// throttled reuse.
  std::vector<std::size_t> rank_suitability(EngineResult& result,
                                            std::span<const float> probs);

  AnoleSystem* system_;
  EngineConfig config_;
  std::shared_ptr<fault::FaultInjector> faults_;
  ModelCache cache_;
  world::FrameFeaturizer featurizer_;
  std::vector<std::size_t> top1_counts_;
  std::size_t fallback_model_ = 0;
  std::size_t switches_ = 0;
  std::size_t frames_ = 0;
  std::size_t low_confidence_ = 0;
  std::size_t nonfinite_frames_ = 0;
  std::size_t payload_corrupt_frames_ = 0;
  std::size_t degraded_frames_ = 0;
  std::size_t quantized_frames_ = 0;
  std::optional<std::size_t> last_served_;
  /// --- governor state ---
  std::size_t dropped_frames_ = 0;
  std::size_t swap_suppressed_frames_ = 0;
  std::size_t reused_ranking_frames_ = 0;
  /// --- drift-response state (DESIGN.md §14) ---
  std::size_t drift_responses_ = 0;
  std::size_t drift_recalibrations_ = 0;
  /// Floor currently in effect; starts at the config value and moves only
  /// when a drift response lands.
  double effective_floor_ = 0.0;
  /// Previous frame's ranking (post confidence-fallback rotation) and
  /// top-1 fields, replayed on throttled ranking reuse.
  std::vector<std::size_t> last_ranking_;
  std::size_t last_top1_model_ = 0;
  double last_top1_confidence_ = 0.0;
  bool last_low_confidence_ = false;
};

}  // namespace anole::core
