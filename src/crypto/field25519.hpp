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
// Exponentiation (all three run on the 5x51-bit field kernel; crypto_test
// checks them against known-answer vectors computed with Python big
// integers and against the bit-at-a-time ladder in tests/reference_kernels):
//   * generator_pow   — fixed-base radix-2^8 comb table for g = 5: 32 table
//                       lookups and <= 31 multiplies, no squarings.
//   * pow             — variable base, 4-bit sliding window over a dedicated
//                       squaring kernel (~255 squarings + ~60 multiplies).
//   * inverse         — fixed exponent p-2 via the standard curve25519
//                       addition chain (254 squarings + 11 multiplies).
// The exp_*_mod_p_minus_1 helpers do exponent arithmetic mod the group
// order p-1 (valid for any nonzero base by Fermat), which lets callers
// collapse chains like (g^a)^b or x^-a into a single exponentiation.

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
  /// bytes): 4-bit sliding window over an 8-entry odd-power table.
  Fe25519 pow(std::span<const std::uint8_t> exponent32) const;

  /// g^e for the fixed generator(), via a lazily built 32x256 radix-2^8
  /// comb table (g^(v * 2^(8i)) for every byte position i and byte value v;
  /// 256 KiB, built once per process): <= 31 multiplies and no squarings
  /// per call.
  static Fe25519 generator_pow(std::span<const std::uint8_t> exponent32);

  /// Multiplicative inverse x^(p-2) via the standard curve25519 addition
  /// chain (254 squarings + 11 multiplies). Throws std::domain_error on
  /// zero.
  Fe25519 inverse() const;

  /// a * b mod (p-1) on 32-byte little-endian exponents. Exponents of any
  /// nonzero base may be reduced mod p-1 (Fermat: x^(p-1) = 1), so
  /// (x^a)^b == x^exp_mul_mod_p_minus_1(a, b).
  static std::array<std::uint8_t, 32> exp_mul_mod_p_minus_1(
      std::span<const std::uint8_t> a32, std::span<const std::uint8_t> b32);

  /// (p-1) - (a mod p-1), the exponent of the inverse power:
  /// x^exp_neg_mod_p_minus_1(a) == (x^a)^-1 for nonzero x.
  static std::array<std::uint8_t, 32> exp_neg_mod_p_minus_1(std::span<const std::uint8_t> a32);

  /// Hex string (big-endian, for debugging/tests).
  std::string to_hex() const;

 private:
  std::array<std::uint64_t, 5> limbs_{0, 0, 0, 0, 0};
};

}  // namespace wavekey::crypto
