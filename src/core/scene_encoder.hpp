// M_scene: the scene representation model (paper section IV-A2).
//
// Trained as a classifier over semantic-scene labels; its last hidden layer
// is the scene embedding used for (a) multi-granularity clustering into
// model-friendly scenes and (b) as the frozen backbone of M_decision.
// The paper uses a ResNet18 on pixels; here the trunk is an MLP over the
// FrameFeaturizer descriptor.
#pragma once

#include <memory>

#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "world/featurizer.hpp"

namespace anole::core {

struct SceneEncoderConfig {
  std::size_t hidden_width = 64;
  std::size_t embedding_dim = 48;
  nn::TrainConfig train;

  SceneEncoderConfig() {
    train.epochs = 30;
    train.batch_size = 64;
    train.learning_rate = 2e-3;
  }
};

class SceneEncoder : public nn::Module {
 public:
  /// `class_count` = number of semantic scenes (the classifier head size).
  SceneEncoder(std::size_t class_count, const SceneEncoderConfig& config,
               Rng& rng);

  /// Full classifier forward (trunk + head); used during training.
  Tensor forward(Tensor input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  void accumulate_gradients(const Tensor& grad_output) override;
  std::vector<nn::Parameter*> parameters() override;
  void set_training(bool training) override;
  std::string name() const override { return "M_scene"; }
  std::uint64_t flops_per_sample() const override;

  /// Trains on frame descriptors + dense scene labels.
  nn::TrainResult train(const Tensor& descriptors,
                        std::span<const std::size_t> labels, Rng& rng,
                        const Tensor& val_descriptors = Tensor(),
                        std::span<const std::size_t> val_labels = {});

  /// Scene embeddings (trunk activations) for a batch of descriptors,
  /// through the const inference path (no caches, no mode toggles).
  Tensor embed(const Tensor& descriptors) const;

  /// Classifier logits over semantic scene classes.
  Tensor classify(const Tensor& descriptors);

  std::size_t embedding_dim() const { return config_.embedding_dim; }
  std::size_t class_count() const { return class_count_; }
  const SceneEncoderConfig& config() const { return config_; }

  /// Cost of the trunk alone (what M_decision inference pays).
  std::uint64_t trunk_flops_per_sample() const;
  nn::Sequential& trunk() { return *trunk_; }

 private:
  std::size_t class_count_;
  SceneEncoderConfig config_;
  std::unique_ptr<nn::Sequential> trunk_;
  std::unique_ptr<nn::Sequential> head_;
};

}  // namespace anole::core
