// AVX2 control-byte scan for runtime::FlatMap: one 32-byte window covers
// two consecutive 16-slot groups per probe step, halving probe iterations
// on long chains. Matches are reported lowest-bit-first, which is exactly
// the scalar group-by-group visit order — required for tier-identical
// map state (see flat_map.hpp).
//
// Isolated in its own translation unit compiled with -mavx2 (see
// src/runtime/CMakeLists.txt); the rest of the library stays at baseline
// ISA and reaches these kernels only through the runtime::cpu tier check.

#include "runtime/flat_map.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace wavekey::runtime::flat_map_detail {

#if defined(__AVX2__)

namespace {

std::uint32_t avx2_match_tag(const std::uint8_t* w, std::uint8_t tag) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
  const __m256i t = _mm256_set1_epi8(static_cast<char>(tag));
  return static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, t)));
}

std::uint32_t avx2_match_empty(const std::uint8_t* w) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
  const __m256i t = _mm256_set1_epi8(static_cast<char>(kCtrlEmpty));
  return static_cast<std::uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, t)));
}

std::uint32_t avx2_match_available(const std::uint8_t* w) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w));
  // byte < -1 ⇔ empty (-128) or deleted (-2); full tags are >= 0.
  return static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpgt_epi8(_mm256_set1_epi8(-1), v)));
}

constexpr ScanOps kAvx2Ops{avx2_match_tag, avx2_match_empty, avx2_match_available, 32};

}  // namespace

const ScanOps* avx2_scan_ops() { return &kAvx2Ops; }

#else

const ScanOps* avx2_scan_ops() { return nullptr; }

#endif

}  // namespace wavekey::runtime::flat_map_detail
