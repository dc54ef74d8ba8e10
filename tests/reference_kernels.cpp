#include "reference_kernels.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

namespace wavekey::nn::reference {
namespace {

std::size_t conv_output_length(std::size_t lin, std::size_t kernel, std::size_t stride,
                               std::size_t padding) {
  return (lin + 2 * padding - kernel) / stride + 1;
}

}  // namespace

Tensor conv1d_forward(const Tensor& input, const Tensor& w, const Tensor& b, std::size_t stride,
                      std::size_t padding) {
  const std::size_t n = input.dim(0), in_ch = input.dim(1), lin = input.dim(2);
  const std::size_t out_ch = w.dim(0), kernel = w.dim(2);
  const std::size_t lout = conv_output_length(lin, kernel, stride, padding);

  Tensor out({n, out_ch, lout});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t oc = 0; oc < out_ch; ++oc) {
      for (std::size_t t = 0; t < lout; ++t) {
        float acc = b[oc];
        const std::ptrdiff_t start =
            static_cast<std::ptrdiff_t>(t * stride) - static_cast<std::ptrdiff_t>(padding);
        for (std::size_t ic = 0; ic < in_ch; ++ic) {
          const float* x = input.raw() + (s * in_ch + ic) * lin;
          const float* wk = w.raw() + (oc * in_ch + ic) * kernel;
          for (std::size_t k = 0; k < kernel; ++k) {
            const std::ptrdiff_t idx = start + static_cast<std::ptrdiff_t>(k);
            if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(lin)) acc += wk[k] * x[idx];
          }
        }
        out.at3(s, oc, t) = acc;
      }
    }
  }
  return out;
}

Tensor conv1d_backward(const Tensor& input, const Tensor& w, const Tensor& grad_output,
                       std::size_t stride, std::size_t padding, Tensor& w_grad, Tensor& b_grad) {
  const std::size_t n = input.dim(0), in_ch = input.dim(1), lin = input.dim(2);
  const std::size_t out_ch = w.dim(0), kernel = w.dim(2);
  const std::size_t lout = grad_output.dim(2);

  Tensor grad_in({n, in_ch, lin});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t oc = 0; oc < out_ch; ++oc) {
      for (std::size_t t = 0; t < lout; ++t) {
        const float g = grad_output.at3(s, oc, t);
        if (g == 0.0f) continue;
        b_grad[oc] += g;
        const std::ptrdiff_t start =
            static_cast<std::ptrdiff_t>(t * stride) - static_cast<std::ptrdiff_t>(padding);
        for (std::size_t ic = 0; ic < in_ch; ++ic) {
          const float* x = input.raw() + (s * in_ch + ic) * lin;
          float* gx = grad_in.raw() + (s * in_ch + ic) * lin;
          float* gw = w_grad.raw() + (oc * in_ch + ic) * kernel;
          const float* wk = w.raw() + (oc * in_ch + ic) * kernel;
          for (std::size_t k = 0; k < kernel; ++k) {
            const std::ptrdiff_t idx = start + static_cast<std::ptrdiff_t>(k);
            if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(lin)) {
              gw[k] += g * x[idx];
              gx[idx] += g * wk[k];
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor conv_transpose1d_forward(const Tensor& input, const Tensor& w, const Tensor& b,
                                std::size_t stride) {
  const std::size_t n = input.dim(0), in_ch = input.dim(1), lin = input.dim(2);
  const std::size_t out_ch = w.dim(1), kernel = w.dim(2);
  const std::size_t lout = (lin - 1) * stride + kernel;

  Tensor out({n, out_ch, lout});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t oc = 0; oc < out_ch; ++oc)
      for (std::size_t t = 0; t < lout; ++t) out.at3(s, oc, t) = b[oc];
    for (std::size_t ic = 0; ic < in_ch; ++ic) {
      const float* x = input.raw() + (s * in_ch + ic) * lin;
      for (std::size_t t = 0; t < lin; ++t) {
        const float xv = x[t];
        if (xv == 0.0f) continue;
        for (std::size_t oc = 0; oc < out_ch; ++oc) {
          float* y = out.raw() + (s * out_ch + oc) * lout;
          const float* wk = w.raw() + (ic * out_ch + oc) * kernel;
          for (std::size_t k = 0; k < kernel; ++k) y[t * stride + k] += xv * wk[k];
        }
      }
    }
  }
  return out;
}

Tensor conv_transpose1d_backward(const Tensor& input, const Tensor& w, const Tensor& grad_output,
                                 std::size_t stride, Tensor& w_grad, Tensor& b_grad) {
  const std::size_t n = input.dim(0), in_ch = input.dim(1), lin = input.dim(2);
  const std::size_t out_ch = w.dim(1), kernel = w.dim(2);
  const std::size_t lout = grad_output.dim(2);

  Tensor grad_in({n, in_ch, lin});
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t oc = 0; oc < out_ch; ++oc) {
      const float* gy = grad_output.raw() + (s * out_ch + oc) * lout;
      float acc = 0.0f;
      for (std::size_t t = 0; t < lout; ++t) acc += gy[t];
      b_grad[oc] += acc;
    }
    for (std::size_t ic = 0; ic < in_ch; ++ic) {
      const float* x = input.raw() + (s * in_ch + ic) * lin;
      float* gx = grad_in.raw() + (s * in_ch + ic) * lin;
      for (std::size_t t = 0; t < lin; ++t) {
        for (std::size_t oc = 0; oc < out_ch; ++oc) {
          const float* gy = grad_output.raw() + (s * out_ch + oc) * lout;
          const float* wk = w.raw() + (ic * out_ch + oc) * kernel;
          float* gw = w_grad.raw() + (ic * out_ch + oc) * kernel;
          float acc = 0.0f;
          for (std::size_t k = 0; k < kernel; ++k) {
            acc += gy[t * stride + k] * wk[k];
            gw[k] += gy[t * stride + k] * x[t];
          }
          gx[t] += acc;
        }
      }
    }
  }
  return grad_in;
}

Tensor dense_forward(const Tensor& input, const Tensor& w, const Tensor& b) {
  const std::size_t n = input.dim(0), in = input.dim(1);
  const std::size_t out = w.dim(0);
  Tensor y({n, out});
  for (std::size_t s = 0; s < n; ++s) {
    const float* x = input.raw() + s * in;
    for (std::size_t o = 0; o < out; ++o) {
      const float* wrow = w.raw() + o * in;
      float acc = b[o];
      for (std::size_t i = 0; i < in; ++i) acc += wrow[i] * x[i];
      y.at2(s, o) = acc;
    }
  }
  return y;
}

Tensor dense_backward(const Tensor& input, const Tensor& w, const Tensor& grad_output,
                      Tensor& w_grad, Tensor& b_grad) {
  const std::size_t n = input.dim(0), in = input.dim(1);
  const std::size_t out = w.dim(0);
  Tensor grad_in({n, in});
  for (std::size_t s = 0; s < n; ++s) {
    const float* x = input.raw() + s * in;
    const float* gy = grad_output.raw() + s * out;
    float* gx = grad_in.raw() + s * in;
    for (std::size_t o = 0; o < out; ++o) {
      const float g = gy[o];
      if (g == 0.0f) continue;
      b_grad[o] += g;
      float* gw = w_grad.raw() + o * in;
      const float* wrow = w.raw() + o * in;
      for (std::size_t i = 0; i < in; ++i) {
        gw[i] += g * x[i];
        gx[i] += g * wrow[i];
      }
    }
  }
  return grad_in;
}

}  // namespace wavekey::nn::reference

namespace wavekey::crypto::reference {

Fe25519 pow_schoolbook(const Fe25519& base, std::span<const std::uint8_t> exponent32) {
  if (exponent32.size() != 32)
    throw std::invalid_argument("pow_schoolbook: need 32-byte exponent");
  Fe25519 result = Fe25519::one();
  Fe25519 power = base;
  for (std::size_t byte = 0; byte < 32; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      if ((exponent32[byte] >> bit) & 1) result = result * power;
      power = power * power;
    }
  }
  return result;
}

Digest256 hmac_sha256_textbook(std::span<const std::uint8_t> key,
                               std::span<const std::uint8_t> data) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{}, ipad{}, opad{};
  if (key.size() > kBlock) {
    const Digest256 hashed = Sha256::hash(key);
    std::memcpy(k.data(), hashed.data(), hashed.size());
  } else if (!key.empty()) {
    std::memcpy(k.data(), key.data(), key.size());
  }
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(ipad).update(data);
  const Digest256 inner_digest = inner.finalize();
  Sha256 outer;
  outer.update(opad).update(inner_digest);
  return outer.finalize();
}

}  // namespace wavekey::crypto::reference
