// Sequential container plus a convenience MLP factory.
#pragma once

#include <memory>
#include <vector>

#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace anole::nn {

/// Runs child modules in order; backward runs them in reverse.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a module; returns *this for chaining.
  Sequential& add(ModulePtr module);

  template <typename T, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<T>(std::forward<Args>(args)...));
  }

  Tensor forward(Tensor input) override;
  Tensor infer(const Tensor& input) const override;
  Tensor backward(const Tensor& grad_output) override;
  /// backward() through modules n-1..1, then accumulate_gradients() on
  /// module 0, whose input gradient nothing consumes.
  void accumulate_gradients(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  void set_training(bool training) override;
  std::string name() const override { return "Sequential"; }
  std::uint64_t flops_per_sample() const override;

  std::size_t size() const { return modules_.size(); }
  Module& at(std::size_t i) { return *modules_.at(i); }

  /// Swaps the module at position `i` for `module` and returns the old
  /// one. Used by the post-training quantization pass (nn/quantize.hpp)
  /// so callers can restore the original layer when a quantized model
  /// fails its accuracy guard.
  ModulePtr replace(std::size_t i, ModulePtr module);

 private:
  std::vector<ModulePtr> modules_;
};

/// Builds [Linear -> ReLU]* -> Linear over the given layer widths.
/// `widths` must have at least two entries (input and output width).
std::unique_ptr<Sequential> make_mlp(const std::vector<std::size_t>& widths,
                                     Rng& rng, float dropout_rate = 0.0f);

}  // namespace anole::nn
