#include "nn/dense.hpp"

#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "nn/gemm.hpp"

namespace wavekey::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_({out_, in_}),
      b_({out_}),
      w_grad_({out_, in_}),
      b_grad_({out_}) {
  const double scale = std::sqrt(2.0 / static_cast<double>(in_ + out_));
  for (std::size_t i = 0; i < w_.size(); ++i) w_[i] = static_cast<float>(rng.normal(0.0, scale));
}

Tensor Dense::forward(const Tensor& input, bool /*training*/) {
  if (input.rank() != 2 || input.dim(1) != in_)
    throw std::invalid_argument("Dense::forward: expected [N, " + std::to_string(in_) + "]");
  input_ = input;
  const std::size_t n = input.dim(0);
  // Y = X * W^T + b as a dot-product GEMM (both operands read K-contiguous;
  // each output element keeps one ascending-k accumulator, same reduction
  // order as the naive kernel).
  Tensor out = Tensor::uninitialized({n, out_});
  for (std::size_t s = 0; s < n; ++s)
    std::memcpy(out.raw() + s * out_, b_.raw(), out_ * sizeof(float));
  gemm_nt(n, out_, in_, input.raw(), in_, w_.raw(), in_, out.raw(), out_, /*accumulate=*/true);
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (grad_output.rank() != 2 || grad_output.dim(1) != out_ ||
      grad_output.dim(0) != input_.dim(0))
    throw std::logic_error("Dense::backward: shape mismatch");
  const std::size_t n = input_.dim(0);
  Tensor grad_in = Tensor::uninitialized({n, in_});  // GEMM overwrites every element
  const float* gy = grad_output.raw();
  // dX = dY * W.
  gemm_nn(n, in_, out_, gy, out_, w_.raw(), in_, grad_in.raw(), in_, /*accumulate=*/false);
  // dW += dY^T * X (gemm_tn contracts over the samples in ascending order).
  gemm_tn(out_, in_, n, gy, out_, input_.raw(), in_, w_grad_.raw(), in_, /*accumulate=*/true);
  // dB += column sums of dY, in sample order.
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t o = 0; o < out_; ++o) b_grad_[o] += gy[s * out_ + o];
  return grad_in;
}

std::vector<Param> Dense::params() {
  return {{&w_, &w_grad_}, {&b_, &b_grad_}};
}

void Dense::save(std::ostream& os) const {
  write_u64(os, in_);
  write_u64(os, out_);
  write_floats(os, w_.data());
  write_floats(os, b_.data());
}

void Dense::load(std::istream& is) {
  const std::uint64_t in = read_u64(is);
  const std::uint64_t out = read_u64(is);
  if (in != in_ || out != out_) throw std::runtime_error("Dense::load: shape mismatch");
  read_floats(is, w_.data());
  read_floats(is, b_.data());
}

void Dense::remove_output_unit(std::size_t unit) {
  if (unit >= out_) throw std::out_of_range("Dense::remove_output_unit");
  Tensor nw({out_ - 1, in_}), nb({out_ - 1});
  std::size_t dst = 0;
  for (std::size_t o = 0; o < out_; ++o) {
    if (o == unit) continue;
    for (std::size_t i = 0; i < in_; ++i) nw[dst * in_ + i] = w_[o * in_ + i];
    nb[dst] = b_[o];
    ++dst;
  }
  --out_;
  w_ = std::move(nw);
  b_ = std::move(nb);
  w_grad_ = Tensor({out_, in_});
  b_grad_ = Tensor({out_});
}

void Dense::remove_input_unit(std::size_t unit) {
  if (unit >= in_) throw std::out_of_range("Dense::remove_input_unit");
  Tensor nw({out_, in_ - 1});
  for (std::size_t o = 0; o < out_; ++o) {
    std::size_t dst = 0;
    for (std::size_t i = 0; i < in_; ++i) {
      if (i == unit) continue;
      nw[o * (in_ - 1) + dst] = w_[o * in_ + i];
      ++dst;
    }
  }
  --in_;
  w_ = std::move(nw);
  w_grad_ = Tensor({out_, in_});
}

}  // namespace wavekey::nn
