#include "nn/optimizer.hpp"

#include <cmath>

#include "tensor/simd.hpp"
#include "util/check.hpp"

namespace anole::nn {
namespace {

void check_params(const std::vector<Parameter*>& params, const char* who) {
  for (const Parameter* p : params) {
    ANOLE_CHECK_NOTNULL(p, who, ": null parameter");
    ANOLE_CHECK(p->value.shape() == p->grad.shape(), who,
                ": parameter value/grad shape mismatch");
  }
}

}  // namespace

void Optimizer::zero_grad() {
  for (Parameter* p : params_) p->zero_grad();
}

Sgd::Sgd(std::vector<Parameter*> params, double learning_rate, double momentum,
         double weight_decay)
    : Optimizer(std::move(params)),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  check_params(params_, "Sgd");
  ANOLE_CHECK_GE(learning_rate, 0.0, "Sgd: negative learning rate");
  learning_rate_ = learning_rate;
  velocity_.reserve(params_.size());
  for (Parameter* p : params_) velocity_.emplace_back(p->value.shape());
}

void Sgd::step() {
  const float lr = static_cast<float>(learning_rate_);
  const float mu = static_cast<float>(momentum_);
  const float wd = static_cast<float>(weight_decay_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    Tensor& v = velocity_[i];
    auto value = p.value.data();
    auto grad = p.grad.data();
    auto vel = v.data();
    for (std::size_t j = 0; j < value.size(); ++j) {
      const float g = grad[j] + wd * value[j];
      vel[j] = mu * vel[j] + g;
      value[j] -= lr * vel[j];
    }
    p.zero_grad();
  }
}

Adam::Adam(std::vector<Parameter*> params, double learning_rate, double beta1,
           double beta2, double epsilon, double weight_decay)
    : Optimizer(std::move(params)),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  check_params(params_, "Adam");
  ANOLE_CHECK_GE(learning_rate, 0.0, "Adam: negative learning rate");
  ANOLE_CHECK(beta1 >= 0.0 && beta1 < 1.0, "Adam: beta1 must be in [0, 1)");
  ANOLE_CHECK(beta2 >= 0.0 && beta2 < 1.0, "Adam: beta2 must be in [0, 1)");
  ANOLE_CHECK_GT(epsilon, 0.0, "Adam: epsilon must be > 0");
  learning_rate_ = learning_rate;
  first_moment_.reserve(params_.size());
  second_moment_.reserve(params_.size());
  for (Parameter* p : params_) {
    first_moment_.emplace_back(p->value.shape());
    second_moment_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++step_count_;
  simd::AdamStep adam;
  adam.lr = static_cast<float>(learning_rate_);
  adam.beta1 = static_cast<float>(beta1_);
  adam.beta2 = static_cast<float>(beta2_);
  adam.epsilon = static_cast<float>(epsilon_);
  adam.weight_decay = static_cast<float>(weight_decay_);
  adam.bias1 = 1.0f - std::pow(adam.beta1, static_cast<float>(step_count_));
  adam.bias2 = 1.0f - std::pow(adam.beta2, static_cast<float>(step_count_));
  const simd::Level level = simd::active_level();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    // The stored state never holds a subnormal; on normal values the
    // flushes are no-ops and the update is the textbook one bit for bit.
    simd::adam_update(level, adam, p.value.size(), p.value.data().data(),
                      p.grad.data().data(), first_moment_[i].data().data(),
                      second_moment_[i].data().data());
    p.zero_grad();
  }
}

}  // namespace anole::nn
