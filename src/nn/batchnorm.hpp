#pragma once

// Batch normalization over [N, F] feature tensors. The paper deliberately
// ends IMU-En and RF-En with batch-norm layers so that every latent element
// is (approximately) standard normal at inference time, which lets both
// devices use one fixed quantizer-bin layout (SIV-C / SIV-E2). To preserve
// exactly that property we support affine=false (no learnable gamma/beta),
// which is how the WaveKey encoders instantiate it.
//
// Thread-safety: externally synchronized like every Layer (see layer.hpp).
// Batch statistics are a cross-sample reduction, taken in sample order like
// every other layer's (DESIGN.md §7.2).

#include "nn/layer.hpp"

namespace wavekey::nn {

class BatchNorm1D final : public Layer {
 public:
  /// @param features   width F of the [N, F] input
  /// @param affine     enable learnable gamma/beta (WaveKey encoders: false)
  /// @param momentum   running-statistics update rate
  explicit BatchNorm1D(std::size_t features, bool affine = false, float momentum = 0.1f);

  std::size_t features() const { return features_; }

  /// Training mode normalizes with batch statistics and updates the running
  /// estimates; eval mode uses the running estimates.
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::string type_name() const override { return "batchnorm1d"; }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  /// Removes feature `unit` (pruning support).
  void remove_unit(std::size_t unit);

  std::span<const float> running_mean() const { return running_mean_.data(); }
  std::span<const float> running_var() const { return running_var_.data(); }

 private:
  std::size_t features_;
  bool affine_;
  float momentum_;
  float eps_ = 1e-5f;

  Tensor gamma_, beta_, gamma_grad_, beta_grad_;
  Tensor running_mean_, running_var_;

  // Caches for backward.
  Tensor x_hat_;       // normalized input
  Tensor batch_std_;   // sqrt(var + eps) per feature
  bool last_training_ = false;
};

}  // namespace wavekey::nn
