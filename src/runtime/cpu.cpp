#include "runtime/cpu.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace wavekey::runtime::cpu {
namespace {

// Cached tiers. kUnset marks "not yet resolved"; resolution is idempotent,
// so a benign race between first callers resolves to the same value.
constexpr int kUnset = -1;
std::atomic<int> g_detected{kUnset};
std::atomic<int> g_active{kUnset};

SimdTier probe_hardware() {
#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || defined(_M_IX86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return SimdTier::kAvx2;
  return SimdTier::kScalar;
#else
  // Non-x86: only the portable kernels are compiled for dispatch.
  return SimdTier::kScalar;
#endif
}

void log_decision(SimdTier active, SimdTier detected, const char* env) {
  static std::once_flag flag;
  std::call_once(flag, [&] {
    // Mirrors ifma_pow_active(), which would re-enter active_tier() here.
    const char* ifma = detected_ifma() && active > SimdTier::kScalar ? "on" : "off";
    if (env != nullptr) {
      std::fprintf(stderr, "wavekey: SIMD tier %s, IFMA pow %s (detected %s, WAVEKEY_SIMD=%s)\n",
                   tier_name(active), ifma, tier_name(detected), env);
    } else {
      std::fprintf(stderr, "wavekey: SIMD tier %s, IFMA pow %s\n", tier_name(active), ifma);
    }
  });
}

}  // namespace

const char* tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kAvx2: return "avx2";
  }
  return "unknown";
}

SimdTier detected_tier() {
  int cached = g_detected.load(std::memory_order_relaxed);
  if (cached == kUnset) {
    cached = static_cast<int>(probe_hardware());
    g_detected.store(cached, std::memory_order_relaxed);
  }
  return static_cast<SimdTier>(cached);
}

SimdTier resolve_tier(const char* env, SimdTier detected) {
  if (env == nullptr || *env == '\0') return detected;
  SimdTier requested;
  if (std::strcmp(env, "scalar") == 0) {
    requested = SimdTier::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = SimdTier::kAvx2;
  } else {
    std::fprintf(stderr, "wavekey: ignoring unknown WAVEKEY_SIMD value '%s'\n", env);
    return detected;
  }
  // Never raise above what the hardware can execute.
  return requested < detected ? requested : detected;
}

SimdTier active_tier() {
  int cached = g_active.load(std::memory_order_relaxed);
  if (cached == kUnset) {
    const SimdTier detected = detected_tier();
    const char* env = std::getenv("WAVEKEY_SIMD");
    const SimdTier active = resolve_tier(env, detected);
    log_decision(active, detected, env);
    cached = static_cast<int>(active);
    g_active.store(cached, std::memory_order_relaxed);
  }
  return static_cast<SimdTier>(cached);
}

bool detected_sha_ni() {
#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || defined(_M_IX86)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

bool sha_ni_active() { return detected_sha_ni() && active_tier() > SimdTier::kScalar; }

bool detected_ifma() {
#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64) || defined(_M_IX86)
  // __builtin_cpu_supports reports AVX-512 features only when XGETBV shows
  // the OS saving the opmask and ZMM registers.
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512ifma") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

bool ifma_pow_active() { return detected_ifma() && active_tier() > SimdTier::kScalar; }

void force_tier_for_testing(std::optional<SimdTier> tier) {
  if (!tier.has_value()) {
    g_active.store(kUnset, std::memory_order_relaxed);
    return;
  }
  const SimdTier detected = detected_tier();
  const SimdTier clamped = *tier < detected ? *tier : detected;
  g_active.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

}  // namespace wavekey::runtime::cpu
