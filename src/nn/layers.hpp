// Concrete layers: Linear, activations, Dropout, LayerNorm.
#pragma once

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace anole::nn {

/// Fully connected layer: y = x W + b, x is [batch, in], W is [in, out].
class Linear : public Module {
 public:
  /// He-style fan-in initialization with the given RNG.
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(Tensor input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  /// backward() minus the input-gradient GEMM.
  void accumulate_gradients(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "Linear"; }
  std::uint64_t flops_per_sample() const override;

  std::size_t in_features() const { return in_features_; }
  std::size_t out_features() const { return out_features_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
};

/// Rectified linear unit.
class ReLU : public Module {
 public:
  Tensor forward(Tensor input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }
  std::uint64_t flops_per_sample() const override { return last_width_; }

 private:
  Tensor cached_input_;
  std::uint64_t last_width_ = 0;
};

/// Leaky rectified linear unit with fixed negative slope.
class LeakyReLU : public Module {
 public:
  explicit LeakyReLU(float negative_slope = 0.1f)
      : negative_slope_(negative_slope) {}

  Tensor forward(Tensor input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "LeakyReLU"; }
  std::uint64_t flops_per_sample() const override { return last_width_; }

 private:
  float negative_slope_;
  Tensor cached_input_;
  std::uint64_t last_width_ = 0;
};

/// Logistic sigmoid.
class Sigmoid : public Module {
 public:
  Tensor forward(Tensor input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Sigmoid"; }
  std::uint64_t flops_per_sample() const override { return 4 * last_width_; }

 private:
  Tensor cached_output_;
  std::uint64_t last_width_ = 0;
};

/// Hyperbolic tangent.
class Tanh : public Module {
 public:
  Tensor forward(Tensor input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Tanh"; }
  std::uint64_t flops_per_sample() const override { return 4 * last_width_; }

 private:
  Tensor cached_output_;
  std::uint64_t last_width_ = 0;
};

/// Inverted dropout: active only in training mode.
class Dropout : public Module {
 public:
  /// `rate` is the drop probability in [0, 1).
  Dropout(float rate, std::uint64_t seed);

  Tensor forward(Tensor input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Dropout"; }

 private:
  float rate_;
  Rng rng_;
  Tensor mask_;
};

/// Layer normalization over the feature dimension with learnable gain/bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::size_t features, float epsilon = 1e-5f);

  Tensor forward(Tensor input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::string name() const override { return "LayerNorm"; }
  std::uint64_t flops_per_sample() const override { return 8 * features_; }

 private:
  std::size_t features_;
  float epsilon_;
  Parameter gain_;
  Parameter bias_;
  Tensor cached_normalized_;
  Tensor cached_inv_std_;  // [batch]
};

}  // namespace anole::nn
