#include "nn/conv1d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "nn/gemm.hpp"

namespace wavekey::nn {
namespace {

float init_scale(std::size_t fan_in, std::size_t fan_out) {
  return static_cast<float>(std::sqrt(2.0 / static_cast<double>(fan_in + fan_out)));
}

// Valid output-position range [t0, t1) for kernel tap offset d = k - padding:
// the positions t with 0 <= t*stride + d < lin. Everything outside reads the
// zero padding, so the packing loops below are memcpy/strided-copy over the
// interior and touch the padding only in the closed-form edge ranges, never
// via a per-MAC bounds check.
struct TapRange {
  std::size_t t0, t1;
};

TapRange tap_range(std::ptrdiff_t d, std::size_t lin, std::size_t stride, std::size_t lout) {
  const std::ptrdiff_t s = static_cast<std::ptrdiff_t>(stride);
  const std::ptrdiff_t t0 = d >= 0 ? 0 : (-d + s - 1) / s;
  const std::ptrdiff_t last_src = static_cast<std::ptrdiff_t>(lin) - 1 - d;
  const std::ptrdiff_t t1 = last_src < 0 ? 0 : last_src / s + 1;
  const std::size_t lo =
      std::min<std::size_t>(static_cast<std::size_t>(std::max<std::ptrdiff_t>(t0, 0)), lout);
  const std::size_t hi =
      std::min<std::size_t>(static_cast<std::size_t>(std::max<std::ptrdiff_t>(t1, 0)), lout);
  return {lo, std::max(lo, hi)};
}

// Packs one [in_ch, lin] sample into the [in_ch*kernel, lout] matrix
// cols[(ic*kernel + k)][t] = x[ic][t*stride + k - padding] (0 in the padding).
void im2col(const float* x, std::size_t in_ch, std::size_t lin, std::size_t kernel,
            std::size_t stride, std::size_t padding, std::size_t lout, float* cols) {
  for (std::size_t ic = 0; ic < in_ch; ++ic) {
    const float* xc = x + ic * lin;
    for (std::size_t k = 0; k < kernel; ++k) {
      float* row = cols + (ic * kernel + k) * lout;
      const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(k) - static_cast<std::ptrdiff_t>(padding);
      const TapRange r = tap_range(d, lin, stride, lout);
      if (r.t0 > 0) std::memset(row, 0, r.t0 * sizeof(float));
      if (r.t1 < lout) std::memset(row + r.t1, 0, (lout - r.t1) * sizeof(float));
      if (stride == 1) {
        if (r.t1 > r.t0)
          std::memcpy(row + r.t0, xc + static_cast<std::ptrdiff_t>(r.t0) + d,
                      (r.t1 - r.t0) * sizeof(float));
      } else {
        for (std::size_t t = r.t0; t < r.t1; ++t)
          row[t] = xc[static_cast<std::ptrdiff_t>(t * stride) + d];
      }
    }
  }
}

// Scatter-adds cols [in_ch*kernel, lout] back into one sample's input
// gradient [in_ch, lin] — the adjoint of im2col. Rows are processed in
// (ic, k) order, so the accumulation order is a pure function of the
// shapes (deterministic).
void col2im_add(const float* cols, std::size_t in_ch, std::size_t lin, std::size_t kernel,
                std::size_t stride, std::size_t padding, std::size_t lout, float* gx) {
  for (std::size_t ic = 0; ic < in_ch; ++ic) {
    float* gc = gx + ic * lin;
    for (std::size_t k = 0; k < kernel; ++k) {
      const float* row = cols + (ic * kernel + k) * lout;
      const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(k) - static_cast<std::ptrdiff_t>(padding);
      const TapRange r = tap_range(d, lin, stride, lout);
      for (std::size_t t = r.t0; t < r.t1; ++t)
        gc[static_cast<std::ptrdiff_t>(t * stride) + d] += row[t];
    }
  }
}

}  // namespace

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      w_({out_ch_, in_ch_, kernel_}),
      b_({out_ch_}),
      w_grad_({out_ch_, in_ch_, kernel_}),
      b_grad_({out_ch_}) {
  if (kernel_ == 0 || stride_ == 0) throw std::invalid_argument("Conv1D: zero kernel/stride");
  const float s = init_scale(in_ch_ * kernel_, out_ch_ * kernel_);
  for (std::size_t i = 0; i < w_.size(); ++i) w_[i] = static_cast<float>(rng.normal(0.0, s));
}

std::size_t Conv1D::output_length(std::size_t input_length) const {
  const std::size_t padded = input_length + 2 * padding_;
  if (padded < kernel_) throw std::invalid_argument("Conv1D: input shorter than kernel");
  return (padded - kernel_) / stride_ + 1;
}

Tensor Conv1D::forward(const Tensor& input, bool /*training*/) {
  if (input.rank() != 3 || input.dim(1) != in_ch_)
    throw std::invalid_argument("Conv1D::forward: expected [N, in_ch, L]");
  input_ = input;
  const std::size_t n = input.dim(0);
  const std::size_t lin = input.dim(2);
  const std::size_t lout = output_length(lin);
  const std::size_t ick = in_ch_ * kernel_;

  // im2col + GEMM lowering: the weight tensor [out_ch, in_ch, kernel] *is*
  // the row-major [out_ch, in_ch*kernel] GEMM operand, so out = W * cols
  // with the GEMM accumulating in (ic, k) order — the same reduction order
  // as the naive kernel (tests/reference_kernels.cpp), only without the per-MAC
  // padding branch.
  Tensor out = Tensor::uninitialized({n, out_ch_, lout});
  Tensor cols = Tensor::uninitialized({ick, lout});  // scratch, reused per sample
  for (std::size_t s = 0; s < n; ++s) {
    im2col(input.raw() + s * in_ch_ * lin, in_ch_, lin, kernel_, stride_, padding_, lout,
           cols.raw());
    float* y = out.raw() + s * out_ch_ * lout;
    for (std::size_t oc = 0; oc < out_ch_; ++oc)
      std::fill(y + oc * lout, y + (oc + 1) * lout, b_[oc]);
    gemm_nn(out_ch_, lout, ick, w_.raw(), ick, cols.raw(), lout, y, lout, /*accumulate=*/true);
  }
  return out;
}

Tensor Conv1D::backward(const Tensor& grad_output) {
  const std::size_t n = input_.dim(0);
  const std::size_t lin = input_.dim(2);
  const std::size_t lout = output_length(lin);
  if (grad_output.rank() != 3 || grad_output.dim(0) != n || grad_output.dim(1) != out_ch_ ||
      grad_output.dim(2) != lout)
    throw std::logic_error("Conv1D::backward: shape mismatch");
  const std::size_t ick = in_ch_ * kernel_;

  Tensor grad_in({n, in_ch_, lin});  // zeroed: col2im_add accumulates
  Tensor cols = Tensor::uninitialized({ick, lout});  // scratch, reused per sample
  Tensor dcols = Tensor::uninitialized({ick, lout});
  // Parameter gradients accumulate sample by sample, in sample order.
  for (std::size_t s = 0; s < n; ++s) {
    const float* gy = grad_output.raw() + s * out_ch_ * lout;
    im2col(input_.raw() + s * in_ch_ * lin, in_ch_, lin, kernel_, stride_, padding_, lout,
           cols.raw());
    // dW += dY * cols^T, dB += row sums of dY.
    gemm_nt(out_ch_, ick, lout, gy, lout, cols.raw(), lout, w_grad_.raw(), ick,
            /*accumulate=*/true);
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      float acc = 0.0f;
      for (std::size_t t = 0; t < lout; ++t) acc += gy[oc * lout + t];
      b_grad_[oc] += acc;
    }
    // dX = col2im(W^T * dY).
    gemm_tn(ick, lout, out_ch_, w_.raw(), ick, gy, lout, dcols.raw(), lout,
            /*accumulate=*/false);
    col2im_add(dcols.raw(), in_ch_, lin, kernel_, stride_, padding_, lout,
               grad_in.raw() + s * in_ch_ * lin);
  }
  return grad_in;
}

std::vector<Param> Conv1D::params() {
  return {{&w_, &w_grad_}, {&b_, &b_grad_}};
}

void Conv1D::save(std::ostream& os) const {
  write_u64(os, in_ch_);
  write_u64(os, out_ch_);
  write_u64(os, kernel_);
  write_u64(os, stride_);
  write_u64(os, padding_);
  write_floats(os, w_.data());
  write_floats(os, b_.data());
}

void Conv1D::load(std::istream& is) {
  if (read_u64(is) != in_ch_ || read_u64(is) != out_ch_ || read_u64(is) != kernel_ ||
      read_u64(is) != stride_ || read_u64(is) != padding_)
    throw std::runtime_error("Conv1D::load: hyperparameter mismatch");
  read_floats(is, w_.data());
  read_floats(is, b_.data());
}

ConvTranspose1D::ConvTranspose1D(std::size_t in_channels, std::size_t out_channels,
                                 std::size_t kernel, std::size_t stride, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      w_({in_ch_, out_ch_, kernel_}),
      b_({out_ch_}),
      w_grad_({in_ch_, out_ch_, kernel_}),
      b_grad_({out_ch_}) {
  if (kernel_ == 0 || stride_ == 0)
    throw std::invalid_argument("ConvTranspose1D: zero kernel/stride");
  const float s = init_scale(in_ch_ * kernel_, out_ch_ * kernel_);
  for (std::size_t i = 0; i < w_.size(); ++i) w_[i] = static_cast<float>(rng.normal(0.0, s));
}

Tensor ConvTranspose1D::forward(const Tensor& input, bool /*training*/) {
  if (input.rank() != 3 || input.dim(1) != in_ch_)
    throw std::invalid_argument("ConvTranspose1D::forward: expected [N, in_ch, L]");
  input_ = input;
  const std::size_t n = input.dim(0);
  const std::size_t lin = input.dim(2);
  const std::size_t lout = output_length(lin);
  const std::size_t ock = out_ch_ * kernel_;

  // GEMM + col2im lowering: the weight tensor [in_ch, out_ch, kernel] is the
  // row-major [in_ch, out_ch*kernel] operand, so cmat = W^T * x gives every
  // (oc, k, t) contribution at once; the scatter y[oc][t*stride+k] += cmat
  // needs no bounds checks because lout = (lin-1)*stride + kernel by
  // construction.
  Tensor out = Tensor::uninitialized({n, out_ch_, lout});
  Tensor cmat = Tensor::uninitialized({ock, lin});  // scratch, reused per sample
  for (std::size_t s = 0; s < n; ++s) {
    const float* x = input.raw() + s * in_ch_ * lin;
    gemm_tn(ock, lin, in_ch_, w_.raw(), ock, x, lin, cmat.raw(), lin, /*accumulate=*/false);
    float* y = out.raw() + s * out_ch_ * lout;
    for (std::size_t oc = 0; oc < out_ch_; ++oc)
      std::fill(y + oc * lout, y + (oc + 1) * lout, b_[oc]);
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      float* yc = y + oc * lout;
      for (std::size_t k = 0; k < kernel_; ++k) {
        const float* row = cmat.raw() + (oc * kernel_ + k) * lin;
        for (std::size_t t = 0; t < lin; ++t) yc[t * stride_ + k] += row[t];
      }
    }
  }
  return out;
}

Tensor ConvTranspose1D::backward(const Tensor& grad_output) {
  const std::size_t n = input_.dim(0);
  const std::size_t lin = input_.dim(2);
  const std::size_t lout = output_length(lin);
  if (grad_output.rank() != 3 || grad_output.dim(0) != n || grad_output.dim(1) != out_ch_ ||
      grad_output.dim(2) != lout)
    throw std::logic_error("ConvTranspose1D::backward: shape mismatch");
  const std::size_t ock = out_ch_ * kernel_;

  Tensor grad_in = Tensor::uninitialized({n, in_ch_, lin});  // GEMM overwrites every element
  // cols2[(oc*kernel + k)][t] = dY[oc][t*stride + k] — the im2col of the
  // *output* gradient; both backward products contract against it.
  Tensor cols2 = Tensor::uninitialized({ock, lin});  // scratch, reused per sample
  // Parameter gradients accumulate sample by sample, in sample order.
  for (std::size_t s = 0; s < n; ++s) {
    const float* x = input_.raw() + s * in_ch_ * lin;
    const float* gy = grad_output.raw() + s * out_ch_ * lout;
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      const float* gc = gy + oc * lout;
      float acc = 0.0f;
      for (std::size_t t = 0; t < lout; ++t) acc += gc[t];
      b_grad_[oc] += acc;
      for (std::size_t k = 0; k < kernel_; ++k) {
        float* row = cols2.raw() + (oc * kernel_ + k) * lin;
        if (stride_ == 1) {
          std::memcpy(row, gc + k, lin * sizeof(float));
        } else {
          for (std::size_t t = 0; t < lin; ++t) row[t] = gc[t * stride_ + k];
        }
      }
    }
    // dX = W * cols2  (contract over (oc, k)).
    gemm_nn(in_ch_, lin, ock, w_.raw(), ock, cols2.raw(), lin,
            grad_in.raw() + s * in_ch_ * lin, lin, /*accumulate=*/false);
    // dW += X * cols2^T.
    gemm_nt(in_ch_, ock, lin, x, lin, cols2.raw(), lin, w_grad_.raw(), ock,
            /*accumulate=*/true);
  }
  return grad_in;
}

std::vector<Param> ConvTranspose1D::params() {
  return {{&w_, &w_grad_}, {&b_, &b_grad_}};
}

void ConvTranspose1D::save(std::ostream& os) const {
  write_u64(os, in_ch_);
  write_u64(os, out_ch_);
  write_u64(os, kernel_);
  write_u64(os, stride_);
  write_floats(os, w_.data());
  write_floats(os, b_.data());
}

void ConvTranspose1D::remove_input_channel(std::size_t channel) {
  if (channel >= in_ch_) throw std::out_of_range("ConvTranspose1D::remove_input_channel");
  Tensor nw({in_ch_ - 1, out_ch_, kernel_});
  std::size_t dst = 0;
  for (std::size_t ic = 0; ic < in_ch_; ++ic) {
    if (ic == channel) continue;
    for (std::size_t j = 0; j < out_ch_ * kernel_; ++j)
      nw[dst * out_ch_ * kernel_ + j] = w_[ic * out_ch_ * kernel_ + j];
    ++dst;
  }
  --in_ch_;
  w_ = std::move(nw);
  w_grad_ = Tensor({in_ch_, out_ch_, kernel_});
}

void ConvTranspose1D::load(std::istream& is) {
  if (read_u64(is) != in_ch_ || read_u64(is) != out_ch_ || read_u64(is) != kernel_ ||
      read_u64(is) != stride_)
    throw std::runtime_error("ConvTranspose1D::load: hyperparameter mismatch");
  read_floats(is, w_.data());
  read_floats(is, b_.data());
}

}  // namespace wavekey::nn
