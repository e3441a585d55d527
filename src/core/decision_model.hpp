// M_decision (paper sections IV-B, IV-C, V-A): the model classifier that
// maps a test frame to a model-allocation vector of per-compressed-model
// suitability probabilities. It reuses M_scene's trunk as a frozen
// backbone and trains a small MLP head on the sample sets produced by
// Adaptive Scene Sampling.
#pragma once

#include <memory>
#include <vector>

#include "core/repository.hpp"
#include "core/scene_encoder.hpp"
#include "nn/trainer.hpp"
#include "sampling/thompson.hpp"

namespace anole::core {

/// The labeled dataset built by ASS: descriptors plus allocation vectors.
struct DecisionDataset {
  /// [n, descriptor] frame descriptors.
  Tensor features;
  /// [n, models] allocation vectors normalized to row sum 1.
  Tensor targets;
  /// Argmax-suitable model per sample (for confusion matrices).
  std::vector<std::size_t> best_model;
  /// Which arm (model training set) each sample was drawn from.
  std::vector<std::size_t> source_arm;
  /// Semantic scene id of each sampled frame.
  std::vector<std::size_t> semantic_scene;
  /// How many samples were drawn from each model's Gamma_i.
  std::vector<double> draws_per_model;
};

struct DecisionSamplingConfig {
  /// Total sampling budget kappa.
  std::size_t budget = 1200;
  /// Well-sampledness confidence theta.
  double theta = 0.9;
  /// Use Thompson sampling (the paper's ASS); false = the random baseline.
  bool adaptive = true;
};

/// Runs ASS over the repository: repeatedly picks a training set Gamma_i,
/// draws a frame from it, tests every compressed model on the frame, and
/// labels the frame with the set of suitable models. A frame drawn in
/// several rounds is tested once; its label repeats in every such round.
DecisionDataset build_decision_dataset(ModelRepository& repository,
                                       const DecisionSamplingConfig& config,
                                       Rng& rng);

struct DecisionModelConfig {
  std::size_t hidden_width = 32;
  nn::TrainConfig train;

  DecisionModelConfig() {
    train.epochs = 40;
    train.batch_size = 32;
    train.learning_rate = 2e-3;
  }
};

class DecisionModel {
 public:
  /// `encoder` must outlive the decision model; its trunk is shared and
  /// kept frozen (paper section IV-C).
  DecisionModel(SceneEncoder& encoder, std::size_t model_count,
                const DecisionModelConfig& config, Rng& rng);

  /// Trains the head on an ASS dataset (backbone stays frozen).
  nn::TrainResult train(const DecisionDataset& dataset, Rng& rng);

  /// Suitability probabilities for a batch of descriptors: [n, models],
  /// through the const inference path (no caches, no mode toggles).
  Tensor suitability(const Tensor& descriptors) const;

  /// Model indices sorted by descending suitability for one descriptor row.
  std::vector<std::size_t> rank(const Tensor& descriptor_row) const;

  std::size_t model_count() const { return model_count_; }
  const DecisionModelConfig& config() const { return config_; }

  /// Inference cost: frozen trunk + head.
  std::uint64_t flops_per_sample() const;

  /// Serialized size of the head (the downloadable M_decision artifact).
  std::uint64_t head_weight_bytes();

  nn::Sequential& head() { return *head_; }

 private:
  SceneEncoder* encoder_;
  std::size_t model_count_;
  DecisionModelConfig config_;
  std::unique_ptr<nn::Sequential> head_;
};

}  // namespace anole::core
