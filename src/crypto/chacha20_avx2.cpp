// AVX2 4-block-parallel ChaCha20 kernel (DESIGN.md §8.5). Each 256-bit row
// vector holds the same row of TWO blocks (one per 128-bit lane); the
// kernel runs two such block pairs per iteration, so a full iteration
// produces 4 blocks = 256 keystream bytes. _mm256_shuffle_epi32 rotates
// within each lane independently, which is exactly the per-block diagonal
// step, and the byte-granular 16/8-bit rotations use VPSHUFB.
//
// Compiled with -mavx2 on x86 (src/crypto/CMakeLists.txt); elsewhere the
// symbol delegates to the scalar kernel so callers can link
// unconditionally and gate on runtime::cpu.

#include "crypto/chacha20.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include <algorithm>
#include <cstring>
#endif

namespace wavekey::crypto {

#if defined(__AVX2__)

namespace {

inline __m256i rotl_epi32(__m256i v, int r) {
  return _mm256_or_si256(_mm256_slli_epi32(v, r), _mm256_srli_epi32(v, 32 - r));
}

inline __m256i rot16(__m256i v) {
  const __m256i k = _mm256_set_epi8(13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2,
                                    13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2);
  return _mm256_shuffle_epi8(v, k);
}

inline __m256i rot8(__m256i v) {
  const __m256i k = _mm256_set_epi8(14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3,
                                    14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3);
  return _mm256_shuffle_epi8(v, k);
}

inline void double_round_rows(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  a = _mm256_add_epi32(a, b);
  d = rot16(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d);
  b = rotl_epi32(_mm256_xor_si256(b, c), 12);
  a = _mm256_add_epi32(a, b);
  d = rot8(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d);
  b = rotl_epi32(_mm256_xor_si256(b, c), 7);

  b = _mm256_shuffle_epi32(b, 0x39);
  c = _mm256_shuffle_epi32(c, 0x4E);
  d = _mm256_shuffle_epi32(d, 0x93);

  a = _mm256_add_epi32(a, b);
  d = rot16(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d);
  b = rotl_epi32(_mm256_xor_si256(b, c), 12);
  a = _mm256_add_epi32(a, b);
  d = rot8(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d);
  b = rotl_epi32(_mm256_xor_si256(b, c), 7);

  b = _mm256_shuffle_epi32(b, 0x93);
  c = _mm256_shuffle_epi32(c, 0x4E);
  d = _mm256_shuffle_epi32(d, 0x39);
}

struct PairState {
  __m256i a, b, c;  // rows 0..2, identical for every block
  __m256i d_base;   // row 3 with counter offset 0 in both lanes
};

inline PairState load_state(const std::uint32_t state[16]) {
  PairState s;
  s.a = _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)));
  s.b = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)));
  s.c = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 8)));
  s.d_base = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 12)));
  return s;
}

// Row-3 vector for the block pair (base + 0, base + 1): lane 0 gets counter
// offset `base`, lane 1 gets `base + 1` (32-bit add, wraps like the scalar
// counter).
inline __m256i pair_d(const PairState& s, std::uint32_t base) {
  const __m256i off = _mm256_set_epi32(0, 0, 0, static_cast<int>(base + 1),  //
                                       0, 0, 0, static_cast<int>(base));
  return _mm256_add_epi32(s.d_base, off);
}

// Runs the 20 rounds for one block pair and writes 128 keystream bytes.
inline void run_pair(const PairState& s, __m256i d_init, std::uint8_t* out) {
  __m256i a = s.a, b = s.b, c = s.c, d = d_init;
  for (int round = 0; round < 10; ++round) double_round_rows(a, b, c, d);
  const __m256i fa = _mm256_add_epi32(a, s.a);
  const __m256i fb = _mm256_add_epi32(b, s.b);
  const __m256i fc = _mm256_add_epi32(c, s.c);
  const __m256i fd = _mm256_add_epi32(d, d_init);
  // Lane 0 of (fa..fd) is block base, lane 1 is block base+1.
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 0),
                      _mm256_permute2x128_si256(fa, fb, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 32),
                      _mm256_permute2x128_si256(fc, fd, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 64),
                      _mm256_permute2x128_si256(fa, fb, 0x31));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 96),
                      _mm256_permute2x128_si256(fc, fd, 0x31));
}

// Two interleaved block pairs (4 blocks, 256 bytes) — doubles the
// independent dependency chains so the FMA-free integer pipes stay busy.
inline void run_quad(const PairState& s, std::uint32_t base, std::uint8_t* out) {
  const __m256i d0_init = pair_d(s, base);
  const __m256i d1_init = pair_d(s, base + 2);
  __m256i a0 = s.a, b0 = s.b, c0 = s.c, d0 = d0_init;
  __m256i a1 = s.a, b1 = s.b, c1 = s.c, d1 = d1_init;
  for (int round = 0; round < 10; ++round) {
    double_round_rows(a0, b0, c0, d0);
    double_round_rows(a1, b1, c1, d1);
  }
  const __m256i fa0 = _mm256_add_epi32(a0, s.a), fb0 = _mm256_add_epi32(b0, s.b);
  const __m256i fc0 = _mm256_add_epi32(c0, s.c), fd0 = _mm256_add_epi32(d0, d0_init);
  const __m256i fa1 = _mm256_add_epi32(a1, s.a), fb1 = _mm256_add_epi32(b1, s.b);
  const __m256i fc1 = _mm256_add_epi32(c1, s.c), fd1 = _mm256_add_epi32(d1, d1_init);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 0),
                      _mm256_permute2x128_si256(fa0, fb0, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 32),
                      _mm256_permute2x128_si256(fc0, fd0, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 64),
                      _mm256_permute2x128_si256(fa0, fb0, 0x31));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 96),
                      _mm256_permute2x128_si256(fc0, fd0, 0x31));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 128),
                      _mm256_permute2x128_si256(fa1, fb1, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 160),
                      _mm256_permute2x128_si256(fc1, fd1, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 192),
                      _mm256_permute2x128_si256(fa1, fb1, 0x31));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 224),
                      _mm256_permute2x128_si256(fc1, fd1, 0x31));
}

}  // namespace

void chacha20_blocks_avx2(const std::uint32_t state[16], std::uint8_t* out,
                          std::size_t nblocks) {
  const PairState s = load_state(state);
  std::uint32_t base = 0;
  std::size_t remaining = nblocks;
  for (; remaining >= 4; remaining -= 4, base += 4) {
    run_quad(s, base, out);
    out += 256;
  }
  // Tail: run pairs into a staging buffer and copy only the wanted bytes
  // (the extra block's state is computed with a wrapping counter and
  // discarded — the caller advances the real counter by `nblocks` only).
  while (remaining > 0) {
    alignas(32) std::uint8_t staging[128];
    run_pair(s, pair_d(s, base), staging);
    const std::size_t take = std::min<std::size_t>(remaining, 2);
    std::memcpy(out, staging, take * 64);
    out += take * 64;
    base += 2;
    remaining -= take;
  }
}

#else  // !defined(__AVX2__)

void chacha20_blocks_avx2(const std::uint32_t state[16], std::uint8_t* out,
                          std::size_t nblocks) {
  chacha20_blocks_scalar(state, out, nblocks);
}

#endif

}  // namespace wavekey::crypto
