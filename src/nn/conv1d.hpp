#pragma once

// 1-D convolution and transposed convolution over [N, C, L] tensors — the
// building blocks of IMU-En / RF-En (two conv layers each) and the decoder
// De (two deconvolutional layers), per Fig. 5 of the paper.
//
// Thread-safety: externally synchronized like every Layer (see layer.hpp).
// forward/backward loop over the batch one sample at a time, so parameter
// gradients accumulate in sample order (DESIGN.md §7.2).

#include "nn/layer.hpp"

namespace wavekey::nn {

/// Cross-correlation style Conv1D with stride and symmetric zero padding.
/// Output length: (L + 2*padding - kernel) / stride + 1.
class Conv1D final : public Layer {
 public:
  Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t padding, Rng& rng);

  std::size_t in_channels() const { return in_ch_; }
  std::size_t out_channels() const { return out_ch_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }
  std::size_t padding() const { return padding_; }

  /// Output length for a given input length (throws if it would be empty).
  std::size_t output_length(std::size_t input_length) const;

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::string type_name() const override { return "conv1d"; }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

 private:
  std::size_t in_ch_, out_ch_, kernel_, stride_, padding_;
  Tensor w_;       // [out_ch, in_ch, kernel]
  Tensor b_;       // [out_ch]
  Tensor w_grad_;
  Tensor b_grad_;
  Tensor input_;   // cached
};

/// Transposed convolution (a.k.a. deconvolution).
/// Output length: (L - 1) * stride + kernel.
class ConvTranspose1D final : public Layer {
 public:
  ConvTranspose1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
                  std::size_t stride, Rng& rng);

  std::size_t output_length(std::size_t input_length) const {
    return (input_length - 1) * stride_ + kernel_;
  }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::string type_name() const override { return "deconv1d"; }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  /// Removes input channel `channel` (pruning support: when an upstream
  /// latent unit is removed, the corresponding weight slice goes with it).
  void remove_input_channel(std::size_t channel);

 private:
  std::size_t in_ch_, out_ch_, kernel_, stride_;
  Tensor w_;  // [in_ch, out_ch, kernel]
  Tensor b_;  // [out_ch]
  Tensor w_grad_;
  Tensor b_grad_;
  Tensor input_;
};

}  // namespace wavekey::nn
