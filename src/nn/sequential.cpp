#include "nn/sequential.hpp"

#include <utility>

#include "util/check.hpp"

namespace anole::nn {

Sequential& Sequential::add(ModulePtr module) {
  ANOLE_CHECK_NOTNULL(module, "Sequential::add: null module");
  modules_.push_back(std::move(module));
  return *this;
}

ModulePtr Sequential::replace(std::size_t i, ModulePtr module) {
  ANOLE_CHECK_LT(i, modules_.size(), "Sequential::replace: index out of range");
  ANOLE_CHECK_NOTNULL(module, "Sequential::replace: null module");
  module->set_training(training());
  std::swap(modules_[i], module);
  return module;
}

Tensor Sequential::forward(Tensor input) {
  // Each activation moves into the next module, so a layer that caches its
  // input keeps the buffer its predecessor returned (a detector training
  // batch is ~1150 x 42 floats) instead of copying it.
  for (auto& module : modules_) input = module->forward(std::move(input));
  return input;
}

Tensor Sequential::infer(const Tensor& input) const {
  // The first module reads `input` directly: no copy of the batch (a
  // detector's is 144 x 42 floats per frame) before the first layer.
  if (modules_.empty()) return input;
  Tensor current = modules_.front()->infer(input);
  for (std::size_t i = 1; i < modules_.size(); ++i) {
    current = modules_[i]->infer(current);
  }
  return current;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor current = grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    current = (*it)->backward(current);
  }
  return current;
}

void Sequential::accumulate_gradients(const Tensor& grad_output) {
  if (modules_.empty()) return;
  Tensor current = grad_output;
  for (std::size_t i = modules_.size() - 1; i > 0; --i) {
    current = modules_[i]->backward(current);
  }
  modules_.front()->accumulate_gradients(current);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& module : modules_) {
    for (Parameter* p : module->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& module : modules_) module->set_training(training);
}

std::uint64_t Sequential::flops_per_sample() const {
  std::uint64_t total = 0;
  for (const auto& module : modules_) total += module->flops_per_sample();
  return total;
}

std::unique_ptr<Sequential> make_mlp(const std::vector<std::size_t>& widths,
                                     Rng& rng, float dropout_rate) {
  ANOLE_CHECK_GE(widths.size(), 2u,
                 "make_mlp: need at least input and output widths");
  for (std::size_t width : widths) {
    ANOLE_CHECK_GT(width, 0u, "make_mlp: zero layer width");
  }
  auto net = std::make_unique<Sequential>();
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    net->emplace<Linear>(widths[i], widths[i + 1], rng);
    const bool is_last = i + 2 == widths.size();
    if (!is_last) {
      net->emplace<ReLU>();
      if (dropout_rate > 0.0f) {
        net->emplace<Dropout>(dropout_rate, rng());
      }
    }
  }
  return net;
}

}  // namespace anole::nn
