#pragma once

// Runtime CPU feature detection and SIMD-tier dispatch (DESIGN.md §8.5).
//
// Every vectorized kernel in the tree selects its implementation through
// one seam, `cpu::active_tier()`: the GEMM kernels (nn/gemm), the FlatMap
// group probe (runtime/flat_map), and, through the capability probes below,
// the SHA-NI compression kernel (crypto/sha256, sha_ni_active()) and the
// eight-lane AVX-512 IFMA exponentiation (crypto/field25519's pow_batch,
// ifma_pow_active()). The ladder is kAvx2 (AVX2 +
// FMA) → kScalar (portable C++), and the chosen tier can only ever be
// *lowered*, never raised above what the hardware reports — forcing `avx2`
// on a machine without it silently clamps to the detected tier instead of
// faulting. There is no 128-bit middle tier: every kernel has exactly one
// vector path plus the scalar twin the tests check it against, and no
// measurement justified a third. Kernels whose vector path no measurement
// earned (ChaCha20, GF(2^8)) have only the portable one.
//
// Override: the environment variable WAVEKEY_SIMD=scalar|avx2 pins the
// tier for the whole process (read once, on first use). Unknown values are
// ignored with a warning. The decision is logged to stderr exactly once,
// together with whether the IFMA exponentiation is active, so every
// bench/test log records which code path actually ran.
//
// Thread-safety: active_tier()/detected_tier() are safe from any thread
// (atomic cache, idempotent initialization). force_tier_for_testing() is a
// test/bench-only hook and must not race with kernels in flight.

#include <optional>

namespace wavekey::runtime::cpu {

/// SIMD capability ladder, ordered so that numeric comparison means
/// "at least as capable as".
enum class SimdTier : int {
  kScalar = 0,  // portable C++ only
  kAvx2 = 1,    // 256-bit vectors + FMA
};

/// Human-readable tier name ("scalar" / "avx2").
const char* tier_name(SimdTier tier);

/// Highest tier the hardware supports (cached after the first call).
SimdTier detected_tier();

/// Tier the dispatch seam actually uses: detected_tier() clamped by the
/// WAVEKEY_SIMD override. Logged to stderr once per process.
SimdTier active_tier();

/// Pure resolution rule behind active_tier(): parses `env` (may be null)
/// and clamps to `detected`. Exposed so tests can exercise the parsing
/// without touching process environment or the cached state.
SimdTier resolve_tier(const char* env, SimdTier detected);

/// Test/bench-only: pins active_tier() to min(tier, detected_tier()) until
/// reset with std::nullopt (which re-applies the environment policy). Not
/// safe to call while kernels run on other threads.
void force_tier_for_testing(std::optional<SimdTier> tier);

/// True iff the hardware executes the SHA-NI extension (sha256rnds2 et al).
/// Orthogonal to the vector-width ladder: a capability probe, not a tier.
bool detected_sha_ni();

/// True iff the SHA-256 kernel may use SHA-NI right now: the hardware has it
/// AND the active tier is avx2 — so WAVEKEY_SIMD=scalar (and
/// force_tier_for_testing(kScalar)) pins hashing to the portable kernel
/// together with every other vectorized path.
bool sha_ni_active();

/// True iff the hardware executes AVX-512F and AVX-512 IFMA (vpmadd52luq /
/// vpmadd52huq) and the OS saves the ZMM state. A capability probe like
/// detected_sha_ni(), not a tier.
bool detected_ifma();

/// True iff Fe25519::pow_batch may run its eight-lane IFMA kernel right now:
/// the hardware has it AND the active tier is avx2, so WAVEKEY_SIMD=scalar
/// (and force_tier_for_testing(kScalar)) pins exponentiation to the
/// portable pow together with every other vectorized path.
bool ifma_pow_active();

}  // namespace wavekey::runtime::cpu
