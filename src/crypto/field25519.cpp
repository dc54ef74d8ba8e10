#include "crypto/field25519.hpp"

#include <cstring>
#include <stdexcept>

#include "runtime/cpu.hpp"

namespace wavekey::crypto {
namespace {

using u128 = unsigned __int128;
using Words = std::array<std::uint64_t, 4>;
using Fe51 = std::array<std::uint64_t, 5>;

constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

Words words_from_bytes(std::span<const std::uint8_t> bytes32) {
  Words r;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= std::uint64_t{bytes32[i * 8 + b]} << (8 * b);
    r[i] = v;
  }
  return r;
}

std::array<std::uint8_t, 32> bytes_from_words(const Words& words) {
  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 4; ++i)
    for (int b = 0; b < 8; ++b) out[i * 8 + b] = static_cast<std::uint8_t>(words[i] >> (8 * b));
  return out;
}

// --- the field kernel: five unsaturated 51-bit limbs ------------------------
//
// An element is h = h0 + h1 2^51 + h2 2^102 + h3 2^153 + h4 2^204 with every
// limb < 2^52 (the "loose" form: congruent to the element mod p, not
// necessarily < p). Multiplying limbs < 2^52 gives 128-bit column sums
// < 2^111, and 2^255 == 19 (mod p) folds the high columns back in as x19
// before any carry, so a product needs one fixed carry chain and no
// conditional step. Nothing here branches on limb values.

// Carries five 128-bit column sums into loose limbs. Two chains run
// interleaved to shorten the dependency path: t0 -> t1 -> t2 -> h3 -> h4 and
// t3 -> t4 -> h0 -> h1, where the carry out of t4 re-enters h0 as x19
// (2^255 == 19). Needs t0..t3 < 2^114 and t4 < 2^110 (products of loose
// limbs stay below 2^111 and 2^107); the result's limbs are < 2^51 except
// h1 and h4, which are < 2^51 + 2^13.
inline Fe51 carry_fold(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  using u64 = std::uint64_t;
  t1 += static_cast<u64>(t0 >> 51);
  t4 += static_cast<u64>(t3 >> 51);
  t2 += static_cast<u64>(t1 >> 51);
  Fe51 r = {static_cast<u64>(t0) & kMask51, static_cast<u64>(t1) & kMask51,
            static_cast<u64>(t2) & kMask51, static_cast<u64>(t3) & kMask51,
            static_cast<u64>(t4) & kMask51};
  r[0] += static_cast<u64>(t4 >> 51) * 19;
  r[3] += static_cast<u64>(t2 >> 51);
  r[1] += r[0] >> 51;
  r[0] &= kMask51;
  r[4] += r[3] >> 51;
  r[3] &= kMask51;
  return r;
}

inline u128 m(std::uint64_t x, std::uint64_t y) { return static_cast<u128>(x) * y; }

// 25 products; b's limbs are pre-scaled by 19 for the columns that wrap.
inline Fe51 mul(const Fe51& a, const Fe51& b) {
  const std::uint64_t b1_19 = 19 * b[1], b2_19 = 19 * b[2], b3_19 = 19 * b[3],
                      b4_19 = 19 * b[4];
  return carry_fold(
      m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19),
      m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19),
      m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19),
      m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19),
      m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]));
}

// 15 products: each off-diagonal pair is formed once with a doubled limb.
inline Fe51 sqr(const Fe51& a) {
  const std::uint64_t a0_2 = 2 * a[0], a1_2 = 2 * a[1], a2_38 = 38 * a[2], a3_19 = 19 * a[3],
                      a4_19 = 19 * a[4], a4_38 = 38 * a[4];
  return carry_fold(m(a[0], a[0]) + m(a4_38, a[1]) + m(a2_38, a[3]),
                    m(a0_2, a[1]) + m(a4_38, a[2]) + m(a3_19, a[3]),
                    m(a0_2, a[2]) + m(a[1], a[1]) + m(a4_38, a[3]),
                    m(a0_2, a[3]) + m(a1_2, a[2]) + m(a4_19, a[4]),
                    m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]));
}

// One carry pass with the x19 fold; limbs < 2^63 in, h1..h4 < 2^51 out.
inline void carry_pass(Fe51& h) {
  for (int i = 0; i < 4; ++i) {
    h[i + 1] += h[i] >> 51;
    h[i] &= kMask51;
  }
  h[0] += 19 * (h[4] >> 51);
  h[4] &= kMask51;
}

// The unique representative < p of loose limbs. Two carry passes leave
// every limb < 2^51, so h < 2^255; then q = (h + 19) >> 255 is 1 exactly
// when h >= p, and adding 19q before dropping bit 255 subtracts qp.
Fe51 canonical(Fe51 h) {
  carry_pass(h);
  carry_pass(h);
  std::uint64_t q = (h[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (h[i] + q) >> 51;
  h[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    h[i + 1] += h[i] >> 51;
    h[i] &= kMask51;
  }
  h[4] &= kMask51;
  return h;
}

// Any value < 2^256 as words -> loose limbs (h4 keeps bits 204..255, so it
// is < 2^52).
Fe51 unpack(const Words& w) {
  return {w[0] & kMask51, ((w[0] >> 51) | (w[1] << 13)) & kMask51,
          ((w[1] >> 38) | (w[2] << 26)) & kMask51, ((w[2] >> 25) | (w[3] << 39)) & kMask51,
          w[3] >> 12};
}

// Canonical limbs -> words.
Words pack(const Fe51& h) {
  return {h[0] | (h[1] << 51), (h[1] >> 13) | (h[2] << 38), (h[2] >> 26) | (h[3] << 25),
          (h[3] >> 39) | (h[4] << 12)};
}

}  // namespace

Fe25519 Fe25519::from_bytes(std::span<const std::uint8_t> bytes32) {
  if (bytes32.size() != 32) throw std::invalid_argument("Fe25519::from_bytes: need 32 bytes");
  Fe25519 r;
  r.limbs_ = unpack(words_from_bytes(bytes32));
  return r;
}

Fe25519 Fe25519::from_limbs(const std::array<std::uint64_t, 5>& limbs) {
  for (const std::uint64_t limb : limbs)
    if (limb >> 52) throw std::invalid_argument("Fe25519::from_limbs: limb >= 2^52");
  Fe25519 r;
  r.limbs_ = limbs;
  return r;
}

std::array<std::uint8_t, 32> Fe25519::to_bytes() const {
  return bytes_from_words(pack(canonical(limbs_)));
}

bool Fe25519::is_zero() const { return canonical(limbs_) == Fe51{}; }

bool Fe25519::operator==(const Fe25519& o) const {
  return canonical(limbs_) == canonical(o.limbs_);
}

Fe25519 Fe25519::operator+(const Fe25519& o) const {
  const Fe51& a = limbs_;
  const Fe51& b = o.limbs_;
  Fe25519 r;
  r.limbs_ = carry_fold(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]);
  return r;
}

Fe25519 Fe25519::operator-(const Fe25519& o) const {
  // a + 4p - b: 4p's limbs (2^53 - 76, 2^53 - 4, ...) exceed any loose limb
  // of b, so no limb goes negative.
  constexpr std::uint64_t k4p0 = 4 * (kMask51 - 18), k4p = 4 * kMask51;
  const Fe51& a = limbs_;
  const Fe51& b = o.limbs_;
  Fe25519 r;
  r.limbs_ = carry_fold(a[0] + k4p0 - b[0], a[1] + k4p - b[1], a[2] + k4p - b[2],
                        a[3] + k4p - b[3], a[4] + k4p - b[4]);
  return r;
}

Fe25519 Fe25519::operator*(const Fe25519& o) const {
  Fe25519 r;
  r.limbs_ = mul(limbs_, o.limbs_);
  return r;
}

Fe25519 Fe25519::square() const {
  Fe25519 r;
  r.limbs_ = sqr(limbs_);
  return r;
}

Fe25519 Fe25519::pow(std::span<const std::uint8_t> exponent32) const {
  if (exponent32.size() != 32) throw std::invalid_argument("Fe25519::pow: need 32-byte exponent");
  // table[w] = x^w for w = 0..15, with x^0 = 1 so that a zero window costs
  // the same as any other.
  Fe51 table[16];
  table[0] = {1, 0, 0, 0, 0};
  table[1] = limbs_;
  for (int w = 2; w < 16; ++w)
    table[w] = (w & 1) ? mul(table[w - 1], table[1]) : sqr(table[w / 2]);

  // table[window]: every entry is read and masked in, so the access pattern
  // is fixed. The mask is all-ones iff w == window, computed without a
  // branch: (window ^ w) - 1 has its top bit set only when the xor is 0.
  const auto select = [&](std::uint64_t window) {
    Fe51 r = table[0];
    for (std::uint64_t w = 1; w < 16; ++w) {
      const std::uint64_t hit = 0 - (((window ^ w) - 1) >> 63);
      for (int j = 0; j < 5; ++j) r[j] ^= hit & (r[j] ^ table[w][j]);
    }
    return r;
  };
  // Window i is bits 4i..4i+3 of the little-endian exponent.
  const auto window = [&](int i) -> std::uint64_t {
    return (exponent32[i >> 1] >> (4 * (i & 1))) & 0xF;
  };

  Fe51 r = select(window(63));
  for (int i = 62; i >= 0; --i) {
    for (int s = 0; s < 4; ++s) r = sqr(r);
    r = mul(r, select(window(i)));
  }
  Fe25519 out;
  out.limbs_ = r;
  return out;
}

void Fe25519::pow_batch(std::span<const Fe25519> bases,
                        std::span<const std::array<std::uint8_t, 32>> exponents,
                        std::span<Fe25519> out) {
  if (exponents.size() != bases.size() || out.size() != bases.size())
    throw std::invalid_argument("Fe25519::pow_batch: size mismatch");
  std::size_t i = 0;
  // The probe first: no host without IFMA calls into the kernel's TU.
  if (runtime::cpu::ifma_pow_active() && fe25519_pow8_ifma_compiled()) {
    // Transpose each group of eight into the kernel's limb-major lanes.
    std::uint64_t lanes[5][8] = {}, powers[5][8] = {};
    std::uint8_t exps[8][32] = {};
    for (; i + 8 <= bases.size(); i += 8) {
      for (int k = 0; k < 8; ++k) {
        for (int j = 0; j < 5; ++j) lanes[j][k] = bases[i + k].limbs_[j];
        std::memcpy(exps[k], exponents[i + k].data(), 32);
      }
      fe25519_pow8_ifma(lanes, exps, powers);
      for (int k = 0; k < 8; ++k)
        for (int j = 0; j < 5; ++j) out[i + k].limbs_[j] = powers[j][k];
    }
  }
  for (; i < bases.size(); ++i) out[i] = bases[i].pow(exponents[i]);
}

std::string Fe25519::to_hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  const auto bytes = to_bytes();
  std::string s;
  s.reserve(64);
  for (int i = 31; i >= 0; --i) {
    s.push_back(kHex[bytes[i] >> 4]);
    s.push_back(kHex[bytes[i] & 0xF]);
  }
  return s;
}

}  // namespace wavekey::crypto
