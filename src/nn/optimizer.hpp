// First-order optimizers over Module parameters.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace anole::nn {

/// Base optimizer bound to a fixed parameter list.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update using the accumulated gradients, then clears them.
  virtual void step() = 0;

  /// Clears all gradients without updating.
  void zero_grad();

  double learning_rate() const { return learning_rate_; }
  void set_learning_rate(double lr) { learning_rate_ = lr; }

 protected:
  std::vector<Parameter*> params_;
  double learning_rate_ = 1e-2;
};

/// SGD with classical momentum and optional L2 weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, double learning_rate,
      double momentum = 0.9, double weight_decay = 0.0);

  void step() override;

 private:
  double momentum_;
  double weight_decay_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction and optional L2 weight decay.
/// Each step stores +0 in place of any subnormal parameter value or
/// moment it would store (DESIGN.md §13, "Subnormals in training").
class Adam : public Optimizer {
 public:
  Adam(std::vector<Parameter*> params, double learning_rate,
       double beta1 = 0.9, double beta2 = 0.999, double epsilon = 1e-8,
       double weight_decay = 0.0);

  void step() override;

  /// The first and second moment estimates of parameter `i`, in the
  /// order the parameters were given.
  const Tensor& first_moment(std::size_t i) const {
    return first_moment_.at(i);
  }
  const Tensor& second_moment(std::size_t i) const {
    return second_moment_.at(i);
  }

 private:
  double beta1_;
  double beta2_;
  double epsilon_;
  double weight_decay_;
  std::vector<Tensor> first_moment_;
  std::vector<Tensor> second_moment_;
  long step_count_ = 0;
};

}  // namespace anole::nn
