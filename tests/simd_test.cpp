// Differential tests for the SIMD kernel layer (DESIGN.md §8.5): the GEMM
// kernels are swept against their scalar oracles across shapes, strides and
// tails, the HmacKey midstate path against the portable HMAC reference,
// plus dispatch-seam tests for the WAVEKEY_SIMD override. The suite is
// sanitizer-clean by construction — any vector load or store that strays
// outside the requested span trips ASan here.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "nn/gemm.hpp"
#include "numeric/rng.hpp"
#include "reference_kernels.hpp"
#include "runtime/cpu.hpp"

namespace wavekey {
namespace {

using runtime::cpu::SimdTier;

bool avx2_host() { return runtime::cpu::detected_tier() >= SimdTier::kAvx2; }

// Restores the dispatch tier even if a test fails mid-way.
struct TierGuard {
  ~TierGuard() { runtime::cpu::force_tier_for_testing(std::nullopt); }
};

// ---------------------------------------------------------------------------
// Dispatch seam

TEST(CpuDispatch, ResolveTierParsesAndClamps) {
  using runtime::cpu::resolve_tier;
  EXPECT_EQ(resolve_tier(nullptr, SimdTier::kAvx2), SimdTier::kAvx2);
  EXPECT_EQ(resolve_tier("", SimdTier::kScalar), SimdTier::kScalar);
  EXPECT_EQ(resolve_tier("scalar", SimdTier::kAvx2), SimdTier::kScalar);
  EXPECT_EQ(resolve_tier("avx2", SimdTier::kAvx2), SimdTier::kAvx2);
  // Requests above the hardware clamp down, never up.
  EXPECT_EQ(resolve_tier("avx2", SimdTier::kScalar), SimdTier::kScalar);
  // Unknown values, "sse2" included, fall back to the detected tier.
  EXPECT_EQ(resolve_tier("avx512", SimdTier::kScalar), SimdTier::kScalar);
  EXPECT_EQ(resolve_tier("sse2", SimdTier::kAvx2), SimdTier::kAvx2);
}

TEST(CpuDispatch, TierNamesRoundTrip) {
  EXPECT_STREQ(runtime::cpu::tier_name(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(runtime::cpu::tier_name(SimdTier::kAvx2), "avx2");
}

TEST(CpuDispatch, ActiveNeverExceedsDetected) {
  EXPECT_LE(static_cast<int>(runtime::cpu::active_tier()),
            static_cast<int>(runtime::cpu::detected_tier()));
}

// Meaningful when the harness sets WAVEKEY_SIMD=scalar (the forced-scalar CI
// leg and the pinned ctest entry do); otherwise it documents the contract
// and skips.
TEST(CpuDispatch, ForcedScalarPinsTier) {
  const char* env = std::getenv("WAVEKEY_SIMD");
  if (env == nullptr || std::string_view(env) != "scalar")
    GTEST_SKIP() << "WAVEKEY_SIMD=scalar not set";
  EXPECT_EQ(runtime::cpu::active_tier(), SimdTier::kScalar);
}

TEST(CpuDispatch, ForceTierForTestingOverridesAndResets) {
  TierGuard guard;
  runtime::cpu::force_tier_for_testing(SimdTier::kScalar);
  EXPECT_EQ(runtime::cpu::active_tier(), SimdTier::kScalar);
  runtime::cpu::force_tier_for_testing(std::nullopt);
  // Back to the environment policy.
  EXPECT_EQ(runtime::cpu::active_tier(),
            runtime::cpu::resolve_tier(std::getenv("WAVEKEY_SIMD"),
                                       runtime::cpu::detected_tier()));
}

TEST(CpuDispatch, ForcedScalarTurnsIfmaPowOff) {
  TierGuard guard;
  runtime::cpu::force_tier_for_testing(SimdTier::kAvx2);
  EXPECT_EQ(runtime::cpu::ifma_pow_active(),
            runtime::cpu::detected_ifma() && runtime::cpu::active_tier() == SimdTier::kAvx2);
  runtime::cpu::force_tier_for_testing(SimdTier::kScalar);
  EXPECT_FALSE(runtime::cpu::ifma_pow_active());
}

// ---------------------------------------------------------------------------
// HMAC midstates

// crypto::HmacKey (cached ipad/opad midstates, dispatched SHA-256 kernel) vs
// the textbook RFC 2104 construction on the portable kernel, across key
// lengths on both sides of the 64-byte block and message lengths 0..130, so
// every pre-hash, padding and resume boundary is hit. Under the forced-scalar
// leg the HmacKey side runs the portable kernel too, so the midstate resume
// is checked on each tier.
TEST(HmacMidstate, HmacKeyMatchesPortableReference) {
  crypto::Drbg rng(7401);
  for (std::size_t key_len : {0u, 1u, 32u, 63u, 64u, 65u, 100u}) {
    std::vector<std::uint8_t> key(key_len);
    rng.random_bytes(key);
    const crypto::HmacKey hmac_key(key);
    for (std::size_t len = 0; len <= 130; ++len) {
      std::vector<std::uint8_t> msg(len);
      rng.random_bytes(msg);
      crypto::Digest256 want;
      {
        crypto::reference::PortableKernelScope scalar;
        want = crypto::reference::hmac_sha256_textbook(key, msg);
      }
      ASSERT_EQ(hmac_key.mac(msg), want) << "key " << key_len << " msg " << len;
      ASSERT_EQ(crypto::hmac_sha256(key, msg), want) << "key " << key_len << " msg " << len;
      // Split input: the multi-part form must equal the contiguous one.
      const std::span<const std::uint8_t> all(msg);
      ASSERT_EQ(hmac_key.mac({all.first(len / 3), all.subspan(len / 3)}), want)
          << "key " << key_len << " msg " << len;
    }
  }
}

// ---------------------------------------------------------------------------
// GEMM

// Relative tolerance matching kernel_equiv_test: tiers reassociate/fuse
// differently but must agree to float precision.
void expect_close(const std::vector<float>& got, const std::vector<float>& want,
                  const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float tol = 1e-5f * (1.0f + std::abs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol) << what << " at " << i;
  }
}

TEST(GemmSimd, Avx2MatchesScalarShapeSweep) {
  if (!avx2_host()) GTEST_SKIP() << "no AVX2";
  Rng rng(106);
  const std::size_t ms[] = {1, 3, 4, 5, 8, 9};
  const std::size_t ns[] = {1, 7, 8, 15, 16, 17, 33};
  const std::size_t ks[] = {0, 1, 5, 8, 32, 40};
  for (std::size_t m : ms) {
    for (std::size_t n : ns) {
      for (std::size_t k : ks) {
        // Leading dims exceed the logical width: strided/unaligned panels.
        const std::size_t lda_nn = k + 3, ldb = n + 5, ldc = n + 2;
        std::vector<float> a(m * lda_nn + (k ? k : 1)), b((k + 1) * ldb + n), c0(m * ldc),
            c1(m * ldc);
        for (auto& v : a) v = static_cast<float>(rng.normal());
        for (auto& v : b) v = static_cast<float>(rng.normal());
        for (auto& v : c0) v = static_cast<float>(rng.normal());
        c1 = c0;
        for (bool accumulate : {false, true}) {
          nn::gemm_nn_scalar(m, n, k, a.data(), lda_nn, b.data(), ldb, c0.data(), ldc,
                             accumulate);
          nn::gemm_nn_avx2(m, n, k, a.data(), lda_nn, b.data(), ldb, c1.data(), ldc,
                           accumulate);
          expect_close(c1, c0, "gemm_nn");
        }

        // tn: A is [K, M] with lda >= m.
        const std::size_t lda_tn = m + 4;
        std::vector<float> at((k + 1) * lda_tn + m);
        for (auto& v : at) v = static_cast<float>(rng.normal());
        nn::gemm_tn_scalar(m, n, k, at.data(), lda_tn, b.data(), ldb, c0.data(), ldc, false);
        nn::gemm_tn_avx2(m, n, k, at.data(), lda_tn, b.data(), ldb, c1.data(), ldc, false);
        expect_close(c1, c0, "gemm_tn");

        // nt: B is [N, K] with ldb >= k.
        const std::size_t ldb_nt = k + 1;
        std::vector<float> bt(n * ldb_nt + (k ? k : 1));
        for (auto& v : bt) v = static_cast<float>(rng.normal());
        nn::gemm_nt_scalar(m, n, k, a.data(), lda_nn, bt.data(), ldb_nt, c0.data(), ldc,
                           true);
        nn::gemm_nt_avx2(m, n, k, a.data(), lda_nn, bt.data(), ldb_nt, c1.data(), ldc, true);
        expect_close(c1, c0, "gemm_nt");
      }
    }
  }
}

// Long-k dot products stress the multi-chain reduction and its fixed fold.
TEST(GemmSimd, DotKernelLongKSweep) {
  if (!avx2_host()) GTEST_SKIP() << "no AVX2";
  Rng rng(107);
  for (std::size_t k = 120; k <= 130; ++k) {
    std::vector<float> a(k), b(k), c0(1), c1(1);
    for (auto& v : a) v = static_cast<float>(rng.normal());
    for (auto& v : b) v = static_cast<float>(rng.normal());
    nn::gemm_nt_scalar(1, 1, k, a.data(), k, b.data(), k, c0.data(), 1, false);
    nn::gemm_nt_avx2(1, 1, k, a.data(), k, b.data(), k, c1.data(), 1, false);
    expect_close(c1, c0, "dot");
  }
}

TEST(GemmSimd, PublicEntryPointsHonorForcedScalar) {
  TierGuard guard;
  Rng rng(108);
  const std::size_t m = 6, n = 19, k = 23;
  std::vector<float> a(m * k), b(k * n), want(m * n, 0.0f), got(m * n, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  runtime::cpu::force_tier_for_testing(SimdTier::kScalar);
  nn::gemm_nn(m, n, k, a.data(), k, b.data(), n, got.data(), n, false);
  runtime::cpu::force_tier_for_testing(std::nullopt);
  nn::gemm_nn_scalar(m, n, k, a.data(), k, b.data(), n, want.data(), n, false);
  // Forced-scalar dispatch must take the *identical* code path: bit-equal.
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace wavekey
