// Equivalence suite for the GEMM-lowered layer kernels: the optimized
// Conv1D / ConvTranspose1D / Dense forward+backward paths must match the
// naive reference kernels (tests/reference_kernels.hpp) within floating-point
// reassociation tolerance, across padding/stride/kernel edge cases and
// multi-sample batches. Also asserts the scratch-arena contract:
// steady-state encoder inference performs zero heap allocations. Last, the
// batched field exponentiation Fe25519::pow_batch (the eight-lane IFMA
// kernel where the host has it) must equal pow and the schoolbook ladder on
// edge bases, edge exponents, every lane remainder and a random soak.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "core/encoders.hpp"
#include "crypto/drbg.hpp"
#include "crypto/field25519.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/tensor.hpp"
#include "numeric/rng.hpp"
#include "reference_kernels.hpp"
#include "runtime/cpu.hpp"

namespace wavekey::nn {
namespace {

constexpr float kRelTol = 1e-5f;

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(rng.normal());
  return t;
}

void expect_close(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float tol = kRelTol * (1.0f + std::abs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol) << what << " at index " << i;
  }
}

struct ConvCase {
  std::size_t n, in_ch, out_ch, lin, kernel, stride, padding;
};

// Edge cases: kernel == input, padding >= kernel-1 (whole taps in the
// padding), stride > kernel (skipped inputs), single-element batch and
// multi-sample batches whose parameter gradients accumulate across samples.
const std::vector<ConvCase> kConvCases = {
    {1, 1, 1, 8, 1, 1, 0},   {1, 3, 16, 200, 7, 2, 3}, {2, 16, 24, 100, 5, 2, 2},
    {3, 2, 4, 9, 3, 1, 2},   {1, 2, 3, 5, 5, 1, 0},    {2, 3, 2, 11, 3, 4, 1},
    {5, 4, 6, 17, 4, 3, 3},  {4, 1, 2, 6, 2, 1, 1},
};

void run_conv1d_case(const ConvCase& c) {
  SCOPED_TRACE(::testing::Message() << "n=" << c.n << " in=" << c.in_ch << " out=" << c.out_ch
                                    << " L=" << c.lin << " k=" << c.kernel << " s=" << c.stride
                                    << " p=" << c.padding);
  Rng rng(42);
  Conv1D conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
  const Tensor x = random_tensor({c.n, c.in_ch, c.lin}, rng);

  // Snapshot the layer's weights for the reference kernels.
  Tensor w, b;
  {
    auto ps = conv.params();
    w = *ps[0].value;
    b = *ps[1].value;
  }

  const Tensor y = conv.forward(x, true);
  const Tensor y_ref = reference::conv1d_forward(x, w, b, c.stride, c.padding);
  expect_close(y, y_ref, "conv1d forward");

  Tensor gy(y.shape());
  for (std::size_t i = 0; i < gy.size(); ++i) gy[i] = static_cast<float>(rng.normal());
  for (Param p : conv.params()) p.grad->fill(0.0f);
  const Tensor gx = conv.backward(gy);

  Tensor wg_ref(w.shape()), bg_ref(b.shape());
  const Tensor gx_ref = reference::conv1d_backward(x, w, gy, c.stride, c.padding, wg_ref, bg_ref);
  expect_close(gx, gx_ref, "conv1d grad_input");
  expect_close(*conv.params()[0].grad, wg_ref, "conv1d grad_w");
  expect_close(*conv.params()[1].grad, bg_ref, "conv1d grad_b");
}

TEST(KernelEquivalence, Conv1dMatchesReferenceSerial) {
  for (const auto& c : kConvCases) run_conv1d_case(c);
}

void run_conv_transpose_case(const ConvCase& c) {
  SCOPED_TRACE(::testing::Message() << "n=" << c.n << " in=" << c.in_ch << " out=" << c.out_ch
                                    << " L=" << c.lin << " k=" << c.kernel << " s=" << c.stride);
  Rng rng(43);
  ConvTranspose1D deconv(c.in_ch, c.out_ch, c.kernel, c.stride, rng);
  const Tensor x = random_tensor({c.n, c.in_ch, c.lin}, rng);

  Tensor w, b;
  {
    auto ps = deconv.params();
    w = *ps[0].value;
    b = *ps[1].value;
  }

  const Tensor y = deconv.forward(x, true);
  const Tensor y_ref = reference::conv_transpose1d_forward(x, w, b, c.stride);
  expect_close(y, y_ref, "deconv forward");

  Tensor gy(y.shape());
  for (std::size_t i = 0; i < gy.size(); ++i) gy[i] = static_cast<float>(rng.normal());
  for (Param p : deconv.params()) p.grad->fill(0.0f);
  const Tensor gx = deconv.backward(gy);

  Tensor wg_ref(w.shape()), bg_ref(b.shape());
  const Tensor gx_ref = reference::conv_transpose1d_backward(x, w, gy, c.stride, wg_ref, bg_ref);
  expect_close(gx, gx_ref, "deconv grad_input");
  expect_close(*deconv.params()[0].grad, wg_ref, "deconv grad_w");
  expect_close(*deconv.params()[1].grad, bg_ref, "deconv grad_b");
}

TEST(KernelEquivalence, ConvTranspose1dMatchesReferenceSerial) {
  for (const auto& c : kConvCases) run_conv_transpose_case(c);
}

void run_dense_case(std::size_t n, std::size_t in, std::size_t out) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " in=" << in << " out=" << out);
  Rng rng(44);
  Dense dense(in, out, rng);
  const Tensor x = random_tensor({n, in}, rng);

  Tensor w, b;
  {
    auto ps = dense.params();
    w = *ps[0].value;
    b = *ps[1].value;
  }

  const Tensor y = dense.forward(x, true);
  const Tensor y_ref = reference::dense_forward(x, w, b);
  expect_close(y, y_ref, "dense forward");

  Tensor gy(y.shape());
  for (std::size_t i = 0; i < gy.size(); ++i) gy[i] = static_cast<float>(rng.normal());
  for (Param p : dense.params()) p.grad->fill(0.0f);
  const Tensor gx = dense.backward(gy);

  Tensor wg_ref(w.shape()), bg_ref(b.shape());
  const Tensor gx_ref = reference::dense_backward(x, w, gy, wg_ref, bg_ref);
  expect_close(gx, gx_ref, "dense grad_input");
  expect_close(*dense.params()[0].grad, wg_ref, "dense grad_w");
  expect_close(*dense.params()[1].grad, bg_ref, "dense grad_b");
}

TEST(KernelEquivalence, DenseMatchesReferenceSerial) {
  run_dense_case(1, 1, 1);
  run_dense_case(1, 1200, 128);
  run_dense_case(3, 7, 5);
  run_dense_case(8, 33, 9);   // exercises GEMM edge tiles (not multiples of 4/8)
  run_dense_case(5, 128, 12);
  run_dense_case(6, 128, 12);
}

// The zero-allocation contract of tensor.hpp: once the encoder has run a
// few warmup passes, every buffer in the forward pass is served by the
// per-thread recycling arena and the heap-allocation counter stops moving.
TEST(TensorArena, ZeroAllocationSteadyStateInference) {
  Rng rng(46);
  core::EncoderPair encoders(12, rng);
  Tensor input({3, 200});
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = static_cast<float>(rng.normal());

  for (int warmup = 0; warmup < 4; ++warmup) (void)encoders.imu_features(input);

  const TensorArenaStats before = tensor_arena_stats();
  for (int i = 0; i < 16; ++i) (void)encoders.imu_features(input);
  const TensorArenaStats after = tensor_arena_stats();

  EXPECT_EQ(after.heap_allocations, before.heap_allocations)
      << "steady-state inference hit the heap (" << after.heap_bytes - before.heap_bytes
      << " fresh bytes)";
  EXPECT_GT(after.pool_reuses, before.pool_reuses);
}

}  // namespace
}  // namespace wavekey::nn

namespace wavekey::crypto {
namespace {

using Exponent = std::array<std::uint8_t, 32>;

// Little-endian 32 bytes: `low` in byte 0, `fill` in bytes 1..30, `top` in
// byte 31 (p = 2^255 - 19 is {0xED, 0xFF..., 0x7F}).
Exponent le_bytes(std::uint8_t low, std::uint8_t fill, std::uint8_t top) {
  Exponent e;
  e.fill(fill);
  e[0] = low;
  e[31] = top;
  return e;
}

std::vector<Fe25519> edge_bases() {
  constexpr std::uint64_t kLooseMax = (std::uint64_t{1} << 52) - 1;
  return {
      Fe25519::zero(),
      Fe25519::one(),
      Fe25519::from_bytes(le_bytes(0xEC, 0xFF, 0x7F)),  // p - 1
      Fe25519::from_bytes(le_bytes(0xED, 0xFF, 0x7F)),  // p
      Fe25519::from_bytes(le_bytes(0xEE, 0xFF, 0x7F)),  // p + 1
      Fe25519::from_limbs({kLooseMax, kLooseMax, kLooseMax, kLooseMax, kLooseMax}),
      Fe25519::from_bytes(le_bytes(0xFF, 0xFF, 0xFF)),  // 2^256 - 1
  };
}

std::vector<Exponent> edge_exponents(Drbg& rng) {
  std::vector<Exponent> out = {
      le_bytes(0x00, 0x00, 0x00),  // 0
      le_bytes(0x01, 0x00, 0x00),  // 1
      le_bytes(0xFF, 0xFF, 0x7F),  // 2^255 - 1, the largest draw_exponent value
      le_bytes(0xFF, 0xFF, 0xFF),  // 2^256 - 1
      le_bytes(0xEC, 0xFF, 0x7F),  // p - 1
      le_bytes(0xEB, 0xFF, 0x7F),  // p - 2
  };
  for (int i = 0; i < 2; ++i) {
    Exponent e;
    rng.random_bytes(e);
    out.push_back(e);
  }
  return out;
}

// A base in either input form: a reduced-on-parse 256-bit string, or five
// independent loose limbs up to the 2^52 - 1 maximum.
Fe25519 random_base(Drbg& rng) {
  if (rng.random_u64() & 1) {
    Exponent bytes;
    rng.random_bytes(bytes);
    return Fe25519::from_bytes(bytes);
  }
  std::array<std::uint64_t, 5> limbs;
  for (auto& limb : limbs) limb = rng.random_u64() >> 12;
  return Fe25519::from_limbs(limbs);
}

// pow_batch over the whole batch against pow per element, and against the
// schoolbook ladder when `schoolbook` is set.
void expect_batch_matches(const std::vector<Fe25519>& bases,
                          const std::vector<Exponent>& exponents, bool schoolbook) {
  std::vector<Fe25519> out(bases.size());
  Fe25519::pow_batch(bases, exponents, out);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const Fe25519 want = bases[i].pow(exponents[i]);
    ASSERT_EQ(out[i].to_bytes(), want.to_bytes())
        << "lane " << i << " of " << bases.size() << ", base " << bases[i].to_hex();
    if (schoolbook) {
      ASSERT_EQ(out[i], reference::pow_schoolbook(bases[i], exponents[i]))
          << "lane " << i << " of " << bases.size();
    }
  }
}

TEST(KernelEquivalence, PowBatchEdgeBasesTimesEdgeExponents) {
  if (runtime::cpu::ifma_pow_active()) {
    EXPECT_TRUE(fe25519_pow8_ifma_compiled()) << "IFMA host, but the kernel was not built";
  }
  Drbg rng(71);
  const std::vector<Fe25519> bases = edge_bases();
  const std::vector<Exponent> exps = edge_exponents(rng);
  std::vector<Fe25519> batch_bases;
  std::vector<Exponent> batch_exps;
  for (const Fe25519& b : bases) {
    for (const Exponent& e : exps) {
      batch_bases.push_back(b);
      batch_exps.push_back(e);
    }
  }
  expect_batch_matches(batch_bases, batch_exps, /*schoolbook=*/true);
}

TEST(KernelEquivalence, PowBatchEveryLaneRemainder) {
  // Sizes around the eight-lane groups; 96 is the shipped session batch.
  Drbg rng(72);
  const std::vector<Fe25519> bases = edge_bases();
  const std::vector<Exponent> exps = edge_exponents(rng);
  for (const std::size_t n : {0, 1, 7, 8, 9, 48, 95, 96, 97}) {
    std::vector<Fe25519> batch_bases;
    std::vector<Exponent> batch_exps;
    for (std::size_t i = 0; i < n; ++i) {
      // Edge values first, then random ones, so every lane slot sees both.
      batch_bases.push_back(i % 3 == 0 ? bases[(i / 3) % bases.size()] : random_base(rng));
      Exponent e;
      rng.random_bytes(e);
      batch_exps.push_back(i % 2 == 0 ? exps[(i / 2) % exps.size()] : e);
    }
    SCOPED_TRACE(n);
    expect_batch_matches(batch_bases, batch_exps, /*schoolbook=*/true);
  }
}

TEST(KernelEquivalence, PowBatchOutputMayAliasBases) {
  Drbg rng(73);
  std::vector<Fe25519> bases;
  std::vector<Exponent> exps(20);
  for (auto& e : exps) rng.random_bytes(e);
  for (std::size_t i = 0; i < exps.size(); ++i) bases.push_back(random_base(rng));
  std::vector<Fe25519> separate(bases.size());
  Fe25519::pow_batch(bases, exps, separate);
  Fe25519::pow_batch(bases, exps, bases);
  EXPECT_EQ(bases, separate);
  EXPECT_THROW(Fe25519::pow_batch(bases, std::span(exps).first(19), separate),
               std::invalid_argument);
}

TEST(KernelEquivalence, PowBatchRandomSoak) {
  // 105 session-sized batches: 10080 random lanes against pow, every 16th
  // batch also against the schoolbook ladder.
  Drbg rng(74);
  for (int batch = 0; batch < 105; ++batch) {
    std::vector<Fe25519> bases;
    std::vector<Exponent> exps(96);
    for (auto& e : exps) {
      rng.random_bytes(e);
      bases.push_back(random_base(rng));
    }
    SCOPED_TRACE(batch);
    expect_batch_matches(bases, exps, /*schoolbook=*/batch % 16 == 0);
  }
}

}  // namespace
}  // namespace wavekey::crypto
