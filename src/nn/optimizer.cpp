#include "nn/optimizer.hpp"

#include <cmath>
#include <limits>

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

/// +0 for a subnormal (or zero) `x`, else `x`. Weight decay walks the
/// weights of dead units down into the subnormal range, where arithmetic
/// on x86 can take a microcode assist per op (DESIGN.md §13,
/// "Subnormals in training").
float flush_subnormal(float x) {
  return std::fabs(x) < std::numeric_limits<float>::min() ? 0.0f : x;
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
  const float lr = static_cast<float>(learning_rate_);
  const float b1 = static_cast<float>(beta1_);
  const float b2 = static_cast<float>(beta2_);
  const float eps = static_cast<float>(epsilon_);
  const float wd = static_cast<float>(weight_decay_);
  const float bias1 =
      1.0f - std::pow(b1, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(b2, static_cast<float>(step_count_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter& p = *params_[i];
    auto value = p.value.data();
    auto grad = p.grad.data();
    auto m = first_moment_[i].data();
    auto v = second_moment_[i].data();
    for (std::size_t j = 0; j < value.size(); ++j) {
      const float g = grad[j] + wd * value[j];
      // The stored state never holds a subnormal; on normal values the
      // flushes are no-ops and the update is the textbook one bit for bit.
      m[j] = flush_subnormal(b1 * m[j] + (1.0f - b1) * g);
      v[j] = flush_subnormal(b2 * v[j] + (1.0f - b2) * g * g);
      const float m_hat = m[j] / bias1;
      const float v_hat = v[j] / bias2;
      value[j] = flush_subnormal(value[j] -
                                 lr * m_hat / (std::sqrt(v_hat) + eps));
    }
    p.zero_grad();
  }
}

}  // namespace anole::nn
