#pragma once

// Test-only reference implementations that the optimized kernels are checked
// against.
//
// The pre-GEMM naive layer kernels, retained verbatim as the executable
// specification of Conv1D / ConvTranspose1D / Dense forward+backward. The
// optimized im2col+GEMM paths in the layers must match these within
// floating-point reassociation tolerance (kernel_equiv_test.cpp), and the
// sanitizer CI legs exercise both implementations through that suite.
//
// All functions are serial and allocation-transparent — they never consult
// the compute pool, which also makes them the ground truth for the §7.2
// determinism contract (pool size <= 1 must equal serial bit for bit).

#include <cstdint>
#include <span>

#include "crypto/field25519.hpp"
#include "crypto/sha256.hpp"
#include "nn/tensor.hpp"
#include "runtime/cpu.hpp"

namespace wavekey::nn::reference {

/// Forward cross-correlation; input [N, in_ch, L], w [out_ch, in_ch, k].
Tensor conv1d_forward(const Tensor& input, const Tensor& w, const Tensor& b, std::size_t stride,
                      std::size_t padding);

/// Backward pass: accumulates into w_grad/b_grad, returns grad_input.
Tensor conv1d_backward(const Tensor& input, const Tensor& w, const Tensor& grad_output,
                       std::size_t stride, std::size_t padding, Tensor& w_grad, Tensor& b_grad);

/// Forward transposed convolution; input [N, in_ch, L], w [in_ch, out_ch, k].
Tensor conv_transpose1d_forward(const Tensor& input, const Tensor& w, const Tensor& b,
                                std::size_t stride);

Tensor conv_transpose1d_backward(const Tensor& input, const Tensor& w, const Tensor& grad_output,
                                 std::size_t stride, Tensor& w_grad, Tensor& b_grad);

/// Forward affine map; input [N, in], w [out, in].
Tensor dense_forward(const Tensor& input, const Tensor& w, const Tensor& b);

Tensor dense_backward(const Tensor& input, const Tensor& w, const Tensor& grad_output,
                      Tensor& w_grad, Tensor& b_grad);

}  // namespace wavekey::nn::reference

// The bit-at-a-time square-and-multiply ladder over Fe25519's public
// operator*, the oracle for pow and pow_batch in crypto_test and
// kernel_equiv_test.
// It shares the field kernel under test, so crypto_test also pins the
// kernel itself with known-answer vectors computed outside it.
//
// The textbook RFC 2104 HMAC, the oracle for HmacKey's cached midstates
// (crypto_test, simd_test). It hashes through Sha256, so a test that wants
// the portable compression kernel calls it under
// runtime::cpu::force_tier_for_testing(kScalar).
namespace wavekey::crypto::reference {

/// base^e for a 32-byte little-endian exponent, one multiply per set bit.
Fe25519 pow_schoolbook(const Fe25519& base, std::span<const std::uint8_t> exponent32);

/// H((K ^ opad) || H((K ^ ipad) || data)), K the key zero-padded to one
/// block (pre-hashed first if longer): no midstates, no HmacKey.
Digest256 hmac_sha256_textbook(std::span<const std::uint8_t> key,
                               std::span<const std::uint8_t> data);

/// Pins SIMD dispatch to the scalar tier for its lifetime, so Sha256
/// compresses on the portable kernel, and restores the environment policy
/// on destruction. Single-threaded use only, like force_tier_for_testing.
struct PortableKernelScope {
  PortableKernelScope() {
    runtime::cpu::force_tier_for_testing(runtime::cpu::SimdTier::kScalar);
  }
  ~PortableKernelScope() { runtime::cpu::force_tier_for_testing(std::nullopt); }
  PortableKernelScope(const PortableKernelScope&) = delete;
  PortableKernelScope& operator=(const PortableKernelScope&) = delete;
};

}  // namespace wavekey::crypto::reference
