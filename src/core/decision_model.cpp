#include "core/decision_model.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <unordered_map>

#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "world/featurizer.hpp"

namespace anole::core {

DecisionDataset build_decision_dataset(ModelRepository& repository,
                                       const DecisionSamplingConfig& config,
                                       Rng& rng) {
  DecisionDataset dataset;
  const std::size_t n_models = repository.size();
  if (n_models == 0) return dataset;

  const auto sizes = repository.training_set_sizes();
  sampling::AdaptiveSceneSampler adaptive(sizes, config.theta);
  sampling::RandomSceneSampler random(sizes);

  // Plan: the samplers' posteriors move with draw counts alone, so every
  // round's (arm, frame) pick is drawn up front, in the per-round Rng
  // order, before any model runs. Repeat draws of a frame share one slot.
  struct Draw {
    std::size_t arm;
    std::size_t slot;
  };
  std::vector<Draw> draws;
  std::vector<const world::Frame*> frames;
  std::unordered_map<const world::Frame*, std::size_t> slot_of;
  for (std::size_t round = 0; round < config.budget; ++round) {
    std::size_t arm;
    if (config.adaptive) {
      const auto next = adaptive.next_arm(rng);
      if (!next) break;  // every Gamma_i is well sampled
      arm = *next;
      adaptive.record_draw(arm);
    } else {
      arm = random.next_arm(rng);
      random.record_draw(arm);
    }

    const auto& model = repository.model(arm);
    const auto& pool = model.validation_frames.empty()
                           ? model.training_frames
                           : model.validation_frames;
    if (pool.empty()) continue;
    const world::Frame* frame = pool[rng.uniform_index(pool.size())];
    const auto [it, inserted] = slot_of.try_emplace(frame, frames.size());
    if (inserted) frames.push_back(frame);
    draws.push_back({arm, it->second});
  }

  // Score: test every compressed model on every distinct sampled frame
  // (paper IV-B) in one fan-out through the const Detector::infer path.
  // Each score is a pure function of its (frame, model) pair written to
  // its own cell, so the result is independent of the thread count.
  // Grain 1: each index is a full network pass.
  std::vector<double> scores(frames.size() * n_models, 0.0);
  par::parallel_for(0, scores.size(), 1, [&](std::size_t i) {
    const world::Frame& frame = *frames[i / n_models];
    scores[i] = detect::match_detections(
                    repository.detector(i % n_models).infer(frame),
                    frame.objects)
                    .f1();
  });

  // Assemble, in round order: the allocation vector marks the models
  // whose frame-level F1 is positive and at least 0.8x the per-frame best,
  // weighted by their F1 so clearly better models get more label mass.
  const world::FrameFeaturizer featurizer;
  const std::size_t width = world::FrameFeaturizer::feature_count();
  FloatBuffer feature_rows;
  FloatBuffer target_rows;
  for (const Draw& draw : draws) {
    const world::Frame& frame = *frames[draw.slot];
    const auto frame_scores =
        std::span<const double>(scores).subspan(draw.slot * n_models,
                                                n_models);
    const std::size_t best = static_cast<std::size_t>(
        std::max_element(frame_scores.begin(), frame_scores.end()) -
        frame_scores.begin());
    const double bar = 0.8 * frame_scores[best];
    std::vector<float> allocation(n_models, 0.0f);
    bool any = false;
    for (std::size_t m = 0; m < n_models; ++m) {
      if (frame_scores[m] > 0.0 && frame_scores[m] >= bar) {
        allocation[m] = static_cast<float>(frame_scores[m]);
        any = true;
      }
    }
    if (!any) allocation[best] = 1.0f;

    // Normalize the allocation vector into a distribution.
    float sum = 0.0f;
    for (float v : allocation) sum += v;
    for (float& v : allocation) v /= sum;

    const Tensor descriptor = featurizer.featurize(frame);
    feature_rows.insert(feature_rows.end(), descriptor.data().begin(),
                        descriptor.data().end());
    target_rows.insert(target_rows.end(), allocation.begin(),
                       allocation.end());
    dataset.best_model.push_back(best);
    dataset.source_arm.push_back(draw.arm);
    dataset.semantic_scene.push_back(frame.semantic_scene_id());
  }

  const std::size_t samples = draws.size();
  dataset.features = Tensor(Shape{samples, width}, std::move(feature_rows));
  dataset.targets = Tensor(Shape{samples, n_models}, std::move(target_rows));
  dataset.draws_per_model =
      config.adaptive ? adaptive.draw_counts() : random.draw_counts();
  return dataset;
}

DecisionModel::DecisionModel(SceneEncoder& encoder, std::size_t model_count,
                             const DecisionModelConfig& config, Rng& rng)
    : encoder_(&encoder), model_count_(model_count), config_(config) {
  ANOLE_CHECK_GE(model_count, 1u, "DecisionModel: no models to rank");
  ANOLE_CHECK_GE(config.hidden_width, 1u, "DecisionModel: hidden_width == 0");
  head_ = std::make_unique<nn::Sequential>();
  head_->emplace<nn::Linear>(encoder.embedding_dim(), config.hidden_width,
                             rng);
  head_->emplace<nn::ReLU>();
  head_->emplace<nn::Linear>(config.hidden_width, model_count, rng);
  head_->set_training(false);
}

nn::TrainResult DecisionModel::train(const DecisionDataset& dataset,
                                     Rng& rng) {
  ANOLE_CHECK_EQ(dataset.targets.cols(), model_count_,
                 "DecisionModel::train: target width != model count");
  // Backbone frozen: embed once, train only the head on the embeddings.
  const Tensor embeddings = encoder_->embed(dataset.features);
  return nn::train_soft_classifier(*head_, embeddings, dataset.targets,
                                   config_.train, rng);
}

Tensor DecisionModel::suitability(const Tensor& descriptors) const {
  return nn::softmax_rows(head_->infer(encoder_->embed(descriptors)));
}

std::vector<std::size_t> DecisionModel::rank(
    const Tensor& descriptor_row) const {
  ANOLE_CHECK(descriptor_row.rank() == 2 && descriptor_row.rows() == 1,
              "DecisionModel::rank: expected a single descriptor row, got ",
              shape_to_string(descriptor_row.shape()));
  const Tensor probs = suitability(descriptor_row);
  std::vector<std::size_t> order(model_count_);
  std::iota(order.begin(), order.end(), std::size_t{0});
  auto row = probs.row(0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (row[a] != row[b]) return row[a] > row[b];
    return a < b;  // deterministic tie-break
  });
  return order;
}

std::uint64_t DecisionModel::flops_per_sample() const {
  return encoder_->trunk_flops_per_sample() + head_->flops_per_sample();
}

std::uint64_t DecisionModel::head_weight_bytes() {
  // Matches the artifact accounting: ANOLEWTS blob size while fp32, the
  // compact precision-tagged size once quantized (artifact v3).
  return nn::streamed_weight_bytes(*head_);
}

}  // namespace anole::core
