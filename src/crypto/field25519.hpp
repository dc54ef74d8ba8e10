#pragma once

// Arithmetic in the prime field F_p with p = 2^255 - 19.
//
// The paper's OT (Fig. 3) performs modular exponentiations g^a mod u for a
// large prime u. We instantiate u with the Mersenne-like curve25519 prime:
// its special form makes reduction a couple of carry chains instead of a
// general bignum division, which keeps this dependency-free implementation
// small and fast. The OT code is written against this type but is otherwise
// group-generic.
//
// Exponentiation has one algorithm, a fixed 4-bit window: 252 squarings and
// 63 multiplies by a table entry x^w, w = 0..15 with x^0 = 1, each entry
// picked by a masked select over the whole table, so no branch and no table
// address depends on an exponent bit. It runs on the 5x51-bit limb form in
// two twins, checked against known-answer vectors computed with Python big
// integers (crypto_test) and against the bit-at-a-time ladder in
// tests/reference_kernels (crypto_test, kernel_equiv_test):
//   * pow        — one exponentiation, portable scalar code;
//   * pow_batch  — many independent exponentiations (every one the OT
//                  needs): on AVX-512F + IFMA hosts eight run in lockstep,
//                  one per 64-bit lane (field25519_ifma.cpp); otherwise,
//                  and for the lanes left over, it is pow per element.

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace wavekey::crypto {

/// An element of F_{2^255-19}, stored as five unsaturated 51-bit limbs
/// (radix 2^51, each limb < 2^52). The limbs are only loosely reduced:
/// arithmetic never canonicalizes, and to_bytes / == / is_zero / to_hex
/// reduce to the unique representative < p, branch-free.
class Fe25519 {
 public:
  /// Zero element.
  constexpr Fe25519() = default;

  /// Small-integer constructor.
  explicit Fe25519(std::uint64_t v)
      : limbs_{v & ((std::uint64_t{1} << 51) - 1), v >> 51, 0, 0, 0} {}

  /// Interprets 32 little-endian bytes, reducing mod p: every value below
  /// 2^256 is accepted, so x and x + p parse to the same element (callers
  /// that need a unique encoding compare to_bytes() with the input).
  static Fe25519 from_bytes(std::span<const std::uint8_t> bytes32);

  /// Canonical 32-byte little-endian encoding.
  std::array<std::uint8_t, 32> to_bytes() const;

  /// The fixed generator used by the OT protocol.
  static Fe25519 generator() { return Fe25519(5); }

  static Fe25519 zero() { return Fe25519(); }
  static Fe25519 one() { return Fe25519(1); }

  bool is_zero() const;
  bool operator==(const Fe25519& o) const;

  Fe25519 operator+(const Fe25519& o) const;
  Fe25519 operator-(const Fe25519& o) const;
  Fe25519 operator*(const Fe25519& o) const;

  /// x^2. Dedicated kernel: the 10 off-diagonal limb products are computed
  /// once with a doubled limb (15 multiplies vs operator*'s 25).
  Fe25519 square() const;

  /// Modular exponentiation with a 256-bit exponent (32 little-endian
  /// bytes): fixed 4-bit window over a 16-entry table with a masked select,
  /// the scalar twin of fe25519_pow8_ifma.
  Fe25519 pow(std::span<const std::uint8_t> exponent32) const;

  /// out[i] = bases[i].pow(exponents[i]) for every i, with identical
  /// results (compare with ==; the loose limbs may differ). Groups of eight
  /// run on the AVX-512 IFMA kernel when runtime::cpu::ifma_pow_active();
  /// the remainder, and every element on other hosts, use pow. `out` may
  /// alias `bases`. Throws std::invalid_argument on mismatched sizes.
  static void pow_batch(std::span<const Fe25519> bases,
                        std::span<const std::array<std::uint8_t, 32>> exponents,
                        std::span<Fe25519> out);

  /// Hex string (big-endian, for debugging/tests).
  std::string to_hex() const;

  /// The element sum(limbs[j] * 2^(51 j)), least significant limb first.
  /// Every limb must be < 2^52, the loose form all operations accept (throws
  /// std::invalid_argument otherwise); lets tests reach inputs such as all
  /// limbs at 2^52 - 1 that from_bytes never produces.
  static Fe25519 from_limbs(const std::array<std::uint64_t, 5>& limbs);

 private:
  std::array<std::uint64_t, 5> limbs_{0, 0, 0, 0, 0};
};

/// Eight exponentiations in lockstep on AVX-512 IFMA (field25519_ifma.cpp,
/// compiled with -mavx512f -mavx512ifma on x86): lane k computes
/// bases^exponents[k], where limb j of lane k's base is bases[j][k] and
/// every limb is < 2^52; the result is written the same way, limbs < 2^52.
/// Callers must gate on runtime::cpu::ifma_pow_active(); pow_batch does.
void fe25519_pow8_ifma(const std::uint64_t bases[5][8], const std::uint8_t exponents[8][32],
                       std::uint64_t out[5][8]);

/// True iff fe25519_pow8_ifma was compiled in (x86 toolchains with the
/// extension); callers must still gate on runtime::cpu::ifma_pow_active().
bool fe25519_pow8_ifma_compiled();

}  // namespace wavekey::crypto
