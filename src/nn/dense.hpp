#pragma once

// Fully connected layer, including the neuron add/remove surgery needed by
// the paper's l_f pruning study (SVI-C1: neurons are removed from the final
// dense layers in ascending output-variance order, then the model retrains).
//
// Thread-safety: externally synchronized like every Layer (see layer.hpp).
// forward/backward run one GEMM over the whole batch; the weight gradient
// contracts over the samples in ascending order (DESIGN.md §7.2).

#include "nn/layer.hpp"

namespace wavekey::nn {

/// y = W x + b with W of shape [out, in].
class Dense final : public Layer {
 public:
  /// He/Xavier-style initialization: W ~ N(0, sqrt(2/(in+out))), b = 0.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::string type_name() const override { return "dense"; }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  /// Removes output neuron `unit` (row of W, entry of b). Used by pruning.
  void remove_output_unit(std::size_t unit);

  /// Removes input feature `unit` (column of W). Used when an upstream layer
  /// was pruned.
  void remove_input_unit(std::size_t unit);

  /// Direct weight access for tests.
  Tensor& weights() { return w_; }
  Tensor& bias() { return b_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor w_;       // [out, in]
  Tensor b_;       // [out]
  Tensor w_grad_;  // [out, in]
  Tensor b_grad_;  // [out]
  Tensor input_;   // cached activations
};

}  // namespace wavekey::nn
