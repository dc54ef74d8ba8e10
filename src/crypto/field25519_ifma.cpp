// Eight-lane AVX-512 IFMA exponentiation in F_{2^255-19} (DESIGN.md §8.4).
//
// Lane k of every __m512i holds one limb of the k-th of eight independent
// field elements, in the same 5x51-bit loose form as field25519.cpp (each
// limb < 2^52). `vpmadd52luq` / `vpmadd52huq` multiply the low 52 bits of
// two limbs and add the low / high 52 bits of the 104-bit product to an
// accumulator. A limb product a_i * b_j = lo + hi * 2^52 lands in radix-2^51
// column i + j as lo and in column i + j + 1 as 2 * hi, so the high halves
// are summed apart and doubled into the next column. Columns 5..9 fold back
// as x19 (2^255 == 19 mod p), and the same fixed carry chain as the scalar
// carry_fold leaves loose limbs again. Bounds: a column holds at most five
// low halves and five doubled high halves, each half < 2^52, so every
// column is < 15 * 2^52 < 2^56; after the x19 fold a column is < 20 * 2^56
// < 2^61, which the 64-bit lanes hold without overflow.
//
// Exponentiation is a fixed 4-bit window, most significant first: 252
// squarings and 63 multiplies by a table entry x^w, w = 0..15, with x^0 = 1
// so a zero window costs the same as any other. The entry is picked by 16
// masked blends over the whole table; no branch and no memory address
// depends on an exponent bit. Fe25519::pow in field25519.cpp is the scalar
// twin of this algorithm, step for step.
//
// This translation unit is compiled with -mavx512f -mavx512ifma on x86 (see
// src/crypto/CMakeLists.txt) and shares no inline code with the rest of the
// library, so no AVX-512 instruction reaches a function other hosts run.
// Callers gate on runtime::cpu::ifma_pow_active(); on toolchains without the
// extension the kernel is absent and fe25519_pow8_ifma_compiled() says so.

#include "crypto/field25519.hpp"

#if defined(__AVX512F__) && defined(__AVX512IFMA__)
#include <immintrin.h>
#endif

namespace wavekey::crypto {

#if defined(__AVX512F__) && defined(__AVX512IFMA__)

bool fe25519_pow8_ifma_compiled() { return true; }

namespace {

struct Fe8 {
  __m512i v[5];
};

// Every loop below is fully unrolled so the column arrays live in
// registers at -O2 as well as at -O3.

// Shifts as GCC vector operations: GCC 12's _mm512_s{l,r}li_epi64 pass an
// "undefined" source that trips -Wmaybe-uninitialized.
using U64x8 = std::uint64_t __attribute__((vector_size(64)));
inline __m512i shl(__m512i x, int n) { return (__m512i)((U64x8)x << n); }
inline __m512i shr(__m512i x, int n) { return (__m512i)((U64x8)x >> n); }

inline __m512i add(__m512i a, __m512i b) { return _mm512_add_epi64(a, b); }

inline __m512i times19(__m512i x) { return add(add(x, shl(x, 1)), shl(x, 4)); }

// Columns L[k] (low halves of column k) and H[k] (high halves of products
// in column k, worth 2 * H[k] in column k + 1), k = 0..8, to loose limbs.
inline Fe8 reduce(const __m512i L[9], const __m512i H[9]) {
  const __m512i mask = _mm512_set1_epi64((std::int64_t{1} << 51) - 1);
  __m512i c[10];
  c[0] = L[0];
  #pragma GCC unroll 16
  for (int k = 1; k < 9; ++k) c[k] = add(L[k], shl(H[k - 1], 1));
  c[9] = shl(H[8], 1);
  __m512i t[5];
  #pragma GCC unroll 16
  for (int k = 0; k < 5; ++k) t[k] = add(c[k], times19(c[k + 5]));
  // carry_fold's two interleaved chains: t0 -> t1 -> t2 -> r3 -> r4 and
  // t3 -> t4 -> r0 -> r1, the carry out of t4 re-entering r0 as x19.
  t[1] = add(t[1], shr(t[0], 51));
  t[4] = add(t[4], shr(t[3], 51));
  t[2] = add(t[2], shr(t[1], 51));
  Fe8 r;
  #pragma GCC unroll 16
  for (int k = 0; k < 5; ++k) r.v[k] = _mm512_and_si512(t[k], mask);
  r.v[0] = add(r.v[0], times19(shr(t[4], 51)));
  r.v[3] = add(r.v[3], shr(t[2], 51));
  r.v[1] = add(r.v[1], shr(r.v[0], 51));
  r.v[0] = _mm512_and_si512(r.v[0], mask);
  r.v[4] = add(r.v[4], shr(r.v[3], 51));
  r.v[3] = _mm512_and_si512(r.v[3], mask);
  return r;
}

// 25 limb products, 50 IFMA instructions.
inline Fe8 mul(const Fe8& a, const Fe8& b) {
  __m512i L[9], H[9];
  #pragma GCC unroll 16
  for (int k = 0; k < 9; ++k) L[k] = H[k] = _mm512_setzero_si512();
  #pragma GCC unroll 16
  for (int i = 0; i < 5; ++i) {
    #pragma GCC unroll 16
    for (int j = 0; j < 5; ++j) {
      L[i + j] = _mm512_madd52lo_epu64(L[i + j], a.v[i], b.v[j]);
      H[i + j] = _mm512_madd52hi_epu64(H[i + j], a.v[i], b.v[j]);
    }
  }
  return reduce(L, H);
}

// 15 limb products: each off-diagonal pair once, its halves doubled (a
// doubled limb would exceed IFMA's 52-bit inputs, so the sums are doubled).
inline Fe8 sqr(const Fe8& a) {
  __m512i L[9], H[9];
  #pragma GCC unroll 16
  for (int k = 0; k < 9; ++k) L[k] = H[k] = _mm512_setzero_si512();
  #pragma GCC unroll 16
  for (int i = 0; i < 5; ++i) {
    #pragma GCC unroll 16
    for (int j = i + 1; j < 5; ++j) {
      L[i + j] = _mm512_madd52lo_epu64(L[i + j], a.v[i], a.v[j]);
      H[i + j] = _mm512_madd52hi_epu64(H[i + j], a.v[i], a.v[j]);
    }
  }
  #pragma GCC unroll 16
  for (int k = 0; k < 9; ++k) {
    L[k] = shl(L[k], 1);
    H[k] = shl(H[k], 1);
  }
  #pragma GCC unroll 16
  for (int i = 0; i < 5; ++i) {
    L[2 * i] = _mm512_madd52lo_epu64(L[2 * i], a.v[i], a.v[i]);
    H[2 * i] = _mm512_madd52hi_epu64(H[2 * i], a.v[i], a.v[i]);
  }
  return reduce(L, H);
}

// table[w] for each lane's own w = window[k] in 0..15: every entry is read
// and blended in under a lane mask, so the access pattern is fixed.
inline Fe8 select(const Fe8 table[16], __m512i window) {
  Fe8 r = table[0];
  #pragma GCC unroll 16
  for (int w = 1; w < 16; ++w) {
    const __mmask8 hit = _mm512_cmpeq_epu64_mask(window, _mm512_set1_epi64(w));
    #pragma GCC unroll 16
    for (int j = 0; j < 5; ++j) r.v[j] = _mm512_mask_blend_epi64(hit, r.v[j], table[w].v[j]);
  }
  return r;
}

}  // namespace

void fe25519_pow8_ifma(const std::uint64_t bases[5][8], const std::uint8_t exponents[8][32],
                       std::uint64_t out[5][8]) {
  Fe8 table[16];
  table[0].v[0] = _mm512_set1_epi64(1);
  for (int j = 1; j < 5; ++j) table[0].v[j] = _mm512_setzero_si512();
  for (int j = 0; j < 5; ++j) table[1].v[j] = _mm512_loadu_si512(bases[j]);
  for (int w = 2; w < 16; ++w)
    table[w] = (w & 1) ? mul(table[w - 1], table[1]) : sqr(table[w / 2]);

  // windows[i][k]: bits 4i..4i+3 of lane k's exponent.
  alignas(64) std::uint64_t windows[64][8] = {};
  for (int k = 0; k < 8; ++k) {
    for (int b = 0; b < 32; ++b) {
      windows[2 * b][k] = exponents[k][b] & 0xF;
      windows[2 * b + 1][k] = exponents[k][b] >> 4;
    }
  }

  Fe8 r = select(table, _mm512_load_si512(windows[63]));
  for (int i = 62; i >= 0; --i) {
    for (int s = 0; s < 4; ++s) r = sqr(r);
    r = mul(r, select(table, _mm512_load_si512(windows[i])));
  }
  for (int j = 0; j < 5; ++j) _mm512_storeu_si512(out[j], r.v[j]);
}

#else

bool fe25519_pow8_ifma_compiled() { return false; }

void fe25519_pow8_ifma(const std::uint64_t[5][8], const std::uint8_t[8][32],
                       std::uint64_t[5][8]) {}

#endif

}  // namespace wavekey::crypto
