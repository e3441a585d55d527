#include "core/scene_encoder.hpp"

#include <utility>

#include "util/check.hpp"

namespace anole::core {

SceneEncoder::SceneEncoder(std::size_t class_count,
                           const SceneEncoderConfig& config, Rng& rng)
    : class_count_(class_count), config_(config) {
  ANOLE_CHECK_GE(class_count, 1u, "SceneEncoder: no scene classes");
  ANOLE_CHECK_GE(config.hidden_width, 1u, "SceneEncoder: hidden_width == 0");
  ANOLE_CHECK_GE(config.embedding_dim, 1u, "SceneEncoder: embedding_dim == 0");
  const std::size_t input = world::FrameFeaturizer::feature_count();
  trunk_ = std::make_unique<nn::Sequential>();
  trunk_->emplace<nn::Linear>(input, config.hidden_width, rng);
  trunk_->emplace<nn::ReLU>();
  trunk_->emplace<nn::Linear>(config.hidden_width, config.embedding_dim, rng);
  trunk_->emplace<nn::ReLU>();
  head_ = std::make_unique<nn::Sequential>();
  head_->emplace<nn::Linear>(config.embedding_dim, class_count, rng);
  trunk_->set_training(false);
  head_->set_training(false);
}

Tensor SceneEncoder::forward(Tensor input) {
  return head_->forward(trunk_->forward(std::move(input)));
}

Tensor SceneEncoder::infer(const Tensor& input) const {
  return head_->infer(trunk_->infer(input));
}

Tensor SceneEncoder::backward(const Tensor& grad_output) {
  ANOLE_CHECK(grad_output.rank() == 2 && grad_output.cols() == class_count_,
              "SceneEncoder::backward: expected [batch, ", class_count_,
              "] logit gradients, got ", shape_to_string(grad_output.shape()));
  return trunk_->backward(head_->backward(grad_output));
}

void SceneEncoder::accumulate_gradients(const Tensor& grad_output) {
  ANOLE_CHECK(grad_output.rank() == 2 && grad_output.cols() == class_count_,
              "SceneEncoder::accumulate_gradients: expected [batch, ",
              class_count_, "] logit gradients, got ",
              shape_to_string(grad_output.shape()));
  trunk_->accumulate_gradients(head_->backward(grad_output));
}

std::vector<nn::Parameter*> SceneEncoder::parameters() {
  auto params = trunk_->parameters();
  for (nn::Parameter* p : head_->parameters()) params.push_back(p);
  return params;
}

void SceneEncoder::set_training(bool training) {
  nn::Module::set_training(training);
  trunk_->set_training(training);
  head_->set_training(training);
}

std::uint64_t SceneEncoder::flops_per_sample() const {
  return trunk_->flops_per_sample() + head_->flops_per_sample();
}

std::uint64_t SceneEncoder::trunk_flops_per_sample() const {
  return trunk_->flops_per_sample();
}

nn::TrainResult SceneEncoder::train(const Tensor& descriptors,
                                    std::span<const std::size_t> labels,
                                    Rng& rng, const Tensor& val_descriptors,
                                    std::span<const std::size_t> val_labels) {
  return nn::train_classifier(*this, descriptors, labels, config_.train, rng,
                              val_descriptors, val_labels);
}

Tensor SceneEncoder::embed(const Tensor& descriptors) const {
  return trunk_->infer(descriptors);
}

Tensor SceneEncoder::classify(const Tensor& descriptors) {
  set_training(false);
  return forward(descriptors);
}

}  // namespace anole::core
