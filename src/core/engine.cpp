#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "nn/quantize.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace anole::core {
namespace {

/// Sanitized value for a non-finite suitability entry: strictly below any
/// valid probability and any configurable confidence floor, so a corrupt
/// reading ranks last and can never win a frame.
constexpr double kCorruptSuitability = -1.0;

bool is_damaged(const AnoleSystem& system, std::size_t model) {
  return std::find(system.damaged_models.begin(),
                   system.damaged_models.end(),
                   model) != system.damaged_models.end();
}

}  // namespace

AnoleEngine::AnoleEngine(AnoleSystem& system, const EngineConfig& config)
    : system_(&system),
      config_(config),
      faults_(config.faults ? config.faults
                            : std::shared_ptr<fault::FaultInjector>(
                                  fault::FaultInjector::from_env())),
      cache_(system.repository.size(), config.cache),
      top1_counts_(system.repository.size(), 0) {
  ANOLE_CHECK(!system.repository.empty(),
              "AnoleEngine: empty model repository");
  ANOLE_CHECK_NOTNULL(system.decision, "AnoleEngine: missing decision model");
  ANOLE_CHECK_GE(config.confidence_floor, 0.0,
                 "AnoleEngine: negative confidence floor");
  ANOLE_CHECK_EQ(system.decision->model_count(), system.repository.size(),
                 "AnoleEngine: decision head width != repository size");
  ANOLE_CHECK_LT(system.damaged_models.size(), system.repository.size(),
                 "AnoleEngine: every model in the artifact was damaged");
  // Broadest undamaged model = most scene classes, ties broken by
  // validation F1. Damaged slots hold placeholders and must never serve.
  bool have_fallback = false;
  for (std::size_t m = 0; m < system.repository.size(); ++m) {
    if (is_damaged(system, m)) continue;
    if (!have_fallback) {
      fallback_model_ = m;
      have_fallback = true;
      continue;
    }
    const SceneModel& candidate = system.repository.model(m);
    const SceneModel& current = system.repository.model(fallback_model_);
    if (candidate.scene_classes.size() > current.scene_classes.size() ||
        (candidate.scene_classes.size() == current.scene_classes.size() &&
         candidate.validation_f1 > current.validation_f1)) {
      fallback_model_ = m;
    }
  }
  cache_.set_pinned_fallback(fallback_model_);
  cache_.set_fault_injector(faults_.get());
  for (std::size_t m : system.damaged_models) cache_.quarantine_forever(m);

  // Byte accounting: real streamed weight bytes per model (quantized
  // artifact sections already report their smaller size).
  std::vector<std::uint64_t> model_bytes;
  model_bytes.reserve(system.repository.size());
  for (std::size_t m = 0; m < system.repository.size(); ++m) {
    model_bytes.push_back(system.repository.detector(m).weight_bytes());
  }
  cache_.set_model_bytes(model_bytes);

  effective_floor_ = config.confidence_floor;
}

AnoleEngine::AnoleEngine(AnoleSystem& system, const CacheConfig& cache_config)
    : AnoleEngine(system, EngineConfig{cache_config, 0.0, nullptr}) {}

EngineResult AnoleEngine::process(const world::Frame& frame) {
  const Tensor descriptor = featurizer_.featurize(frame);
  const Tensor probs = system_->decision->suitability(descriptor);
  return process_with_suitability(frame, probs.row(0));
}

std::vector<EngineResult> AnoleEngine::process_batch(
    const std::vector<const world::Frame*>& frames) {
  std::vector<EngineResult> results;
  if (frames.empty()) return results;
  for (const world::Frame* frame : frames) {
    ANOLE_CHECK(frame != nullptr,
                "AnoleEngine::process_batch: null frame pointer");
  }
  // MSS, hoisted: one featurize_batch and one decision-model forward for
  // the whole batch. Each matmul output row depends only on its own input
  // row, so row i of `probs` is bitwise identical to what process() would
  // have computed for frame i alone.
  const Tensor descriptors = featurizer_.featurize_batch(frames);
  const Tensor probs = system_->decision->suitability(descriptors);
  // Plan stage, sequential in frame order: every piece of mutable engine
  // state — governor, drift response, cache admission, fault draws,
  // counters —
  // advances here exactly as the frame-by-frame path would.
  results.resize(frames.size());
  constexpr std::size_t kNoDetect = ~std::size_t{0};
  std::vector<std::size_t> planned(frames.size(), kNoDetect);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    planned[i] =
        plan_with_suitability(results[i], probs.row(i)).value_or(kNoDetect);
  }
  // Detect stage: fan out across frames through the const
  // Detector::infer path (grain 1: one frame is a full network pass).
  // Frames sharing a detector are safe — infer writes no module state —
  // and the tensor kernels run on the worker's own thread, so each
  // frame's detections are bitwise identical to the serial path.
  par::parallel_for(0, frames.size(), 1, [&](std::size_t i) {
    if (planned[i] == kNoDetect) return;
    results[i].detections =
        system_->repository.detector(planned[i]).infer(*frames[i]);
  });
  return results;
}

EngineResult AnoleEngine::process_with_suitability(
    const world::Frame& frame, std::span<const float> probs) {
  EngineResult result;
  const std::optional<std::size_t> model =
      plan_with_suitability(result, probs);
  if (model.has_value()) {
    result.detections = system_->repository.detector(*model).infer(frame);
  }
  return result;
}

std::optional<std::size_t> AnoleEngine::plan_with_suitability(
    EngineResult& result, std::span<const float> probs) {
  const std::size_t n = system_->repository.size();
  ANOLE_CHECK_EQ(probs.size(), n,
                 "AnoleEngine: suitability width != repository size");

  // Overload governor (DESIGN.md §11): one plan() per frame decides
  // drop / swap suppression / ranking reuse before any stateful work.
  core::GovernorDirective directive;
  if (config_.governor != nullptr) directive = config_.governor->plan();
  result.governor_state = directive.state;

  if (directive.drop_frame) {
    // Shed outright: no ranking, no cache admission, no fault
    // draws, no detector — the frame's only trace is this record. The
    // previous served model is reported so downstream accounting has a
    // stable id.
    result.health.frame_dropped = true;
    ++dropped_frames_;
    result.served_model = last_served_.value_or(fallback_model_);
    result.top1_model = result.served_model;
    ++frames_;
    return std::nullopt;
  }

  // Drift response (DESIGN.md §14), applied forward: a detection observed
  // on an earlier frame lands here, before this frame's ranking, so the
  // response never re-runs a ranking (and its fault draws) mid-frame.
  // Recalibrate the floor and drop the cached ranking, so this frame
  // re-ranks all models fresh even while the governor is throttling
  // ranking refreshes.
  if (config_.drift != nullptr && config_.drift->response_pending()) {
    const DriftResponse response = config_.drift->take_response();
    result.health.drift_detected = true;
    ++drift_responses_;
    if (response.recalibrated_floor >= 0.0 &&
        config_.confidence_floor > 0.0) {
      effective_floor_ = response.recalibrated_floor;
      result.health.drift_recalibrated = true;
      ++drift_recalibrations_;
    }
    last_ranking_.clear();
  }

  const bool reuse_ranking =
      !directive.refresh_ranking && last_ranking_.size() == n;
  std::vector<std::size_t> ranking;
  if (reuse_ranking) {
    // Throttled MSS: replay the previous frame's ranking (post
    // confidence-fallback rotation) without running the decision tail —
    // no decision fault draw, no top1 credit.
    ranking = last_ranking_;
    result.ranking_reused = true;
    ++reused_ranking_frames_;
    result.top1_model = last_top1_model_;
    result.top1_confidence = last_top1_confidence_;
    result.low_confidence = last_low_confidence_;
  } else {
    ranking = rank_suitability(result, probs);
  }

  // CMD: resolve against the model cache (bounded retry + quarantine
  // ladder live inside admit; it never throws on a valid ranking).
  const auto admission =
      cache_.admit(ranking, AdmitOptions{.allow_load = directive.allow_swap});
  result.served_model = admission.served_model;
  result.cache_hit = admission.hit;
  result.model_loaded = admission.loaded.has_value();
  result.health.load_attempts = admission.load_attempts;
  result.health.load_abandoned = admission.load_abandoned;
  result.health.quarantined = admission.quarantined;
  result.health.served_degraded = admission.served_pinned;
  result.health.swap_suppressed =
      admission.swap_suppressed || admission.load_refused_oversized;
  if (admission.served_pinned) ++degraded_frames_;
  if (result.health.swap_suppressed) ++swap_suppressed_frames_;

  // MI planning: decide whether the chosen compressed model runs. A
  // corrupt payload degrades to an empty detection set for this frame
  // instead of feeding the detector garbage; the inference itself is the
  // caller's (const, fan-out-able) detect stage.
  std::optional<std::size_t> detect_model;
  if (faults_ != nullptr &&
      faults_->should_fail(fault::Site::kFramePayload, frames_)) {
    result.health.payload_corrupt = true;
    ++payload_corrupt_frames_;
  } else {
    detect::GridDetector& served =
        system_->repository.detector(admission.served_model);
    result.health.served_quantized = nn::is_quantized(served.network());
    if (result.health.served_quantized) ++quantized_frames_;
    detect_model = admission.served_model;
  }

  // Drift observation: one sample per decision-model run. Reused rankings
  // and shed frames carry no new decision evidence, so they are not fed —
  // the detector's observation stream (and trace hash) is a pure function
  // of the fresh-ranking sequence, identical across thread counts.
  if (config_.drift != nullptr && !reuse_ranking) {
    config_.drift->observe_confidence(result.top1_confidence);
  }

  result.model_switched =
      last_served_.has_value() && *last_served_ != admission.served_model;
  if (result.model_switched) ++switches_;
  last_served_ = admission.served_model;
  ++frames_;
  return detect_model;
}

std::vector<std::size_t> AnoleEngine::rank_suitability(
    EngineResult& result, std::span<const float> probs) {
  // MSS tail: rank this frame's own suitability vector.
  const std::size_t n = system_->repository.size();
  std::vector<double> suitability(probs.begin(), probs.end());
  // Injected decision corruption: one entry turns non-finite, exercising
  // the guard below exactly as a misbehaving decision head would.
  if (faults_ != nullptr &&
      faults_->should_fail(fault::Site::kDecisionOutput, frames_)) {
    suitability[faults_->draw_index(fault::Site::kDecisionOutput, n)] =
        std::numeric_limits<double>::quiet_NaN();
  }
  // NaN/Inf guard: a non-finite suitability entry is treated as "below
  // the confidence floor" — sanitized to rank last — instead of poisoning
  // the sort.
  for (double& value : suitability) {
    if (!std::isfinite(value)) {
      value = kCorruptSuitability;
      result.health.nonfinite_suitability = true;
    }
  }
  if (result.health.nonfinite_suitability) ++nonfinite_frames_;

  std::vector<std::size_t> ranking(n);
  std::iota(ranking.begin(), ranking.end(), std::size_t{0});
  std::sort(ranking.begin(), ranking.end(), [&](std::size_t a, std::size_t b) {
    if (suitability[a] != suitability[b]) {
      return suitability[a] > suitability[b];
    }
    return a < b;  // deterministic tie-break
  });
  result.top1_model = ranking[0];
  result.top1_confidence = suitability[ranking[0]];
  ++top1_counts_[ranking[0]];

  // Case-3 fallback: no model looks suitable — or the whole vector was
  // corrupt (top-1 below zero) — use the broadest one.
  if ((effective_floor_ > 0.0 &&
       result.top1_confidence < effective_floor_) ||
      result.top1_confidence < 0.0) {
    result.low_confidence = true;
    ++low_confidence_;
    std::rotate(ranking.begin(),
                std::find(ranking.begin(), ranking.end(), fallback_model_),
                ranking.end());
  }

  // Remember the (rotated) ranking for throttled reuse.
  last_ranking_ = ranking;
  last_top1_model_ = result.top1_model;
  last_top1_confidence_ = result.top1_confidence;
  last_low_confidence_ = result.low_confidence;
  return ranking;
}

bool AnoleEngine::decision_quantized() const {
  return system_->decision && nn::is_quantized(system_->decision->head());
}

bool AnoleEngine::model_quantized(std::size_t model) const {
  return nn::is_quantized(system_->repository.detector(model).network());
}

}  // namespace anole::core
