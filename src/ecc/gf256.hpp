#pragma once

// GF(2^8) arithmetic with the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D),
// the field underlying the Reed-Solomon reconciliation code.
//
// Besides the classic scalar log/exp operations this header exposes the
// bulk primitive the RS hot loops are built on (DESIGN.md §8.5):
//
//   * MulTable      — a 16+16-entry nibble-split product table for one fixed
//                     multiplier c: c·x = lo[x & 15] ^ hi[x >> 4] because GF
//                     multiplication is GF(2)-linear in x. Branchless, with
//                     no zero tests.
//   * addmul_slice  — dst[i] ^= c · src[i] over a byte span, one MulTable
//                     loop.
//
// Aliasing: dst == src is allowed (each element is loaded before it is
// stored); *partially* overlapping spans are not.
//
// Thread-safety: all operations are static, read-only lookups into tables
// built once under C++11 magic-static initialization — safe to call from
// any number of threads concurrently.

#include <array>
#include <cstddef>
#include <cstdint>

namespace wavekey::ecc {

/// Table-driven GF(2^8) arithmetic. All operations are total except division
/// by zero and log(0), which throw std::domain_error.
class Gf256 {
 public:
  static std::uint8_t add(std::uint8_t a, std::uint8_t b) { return a ^ b; }
  static std::uint8_t sub(std::uint8_t a, std::uint8_t b) { return a ^ b; }
  static std::uint8_t mul(std::uint8_t a, std::uint8_t b);
  static std::uint8_t div(std::uint8_t a, std::uint8_t b);
  static std::uint8_t inv(std::uint8_t a);

  /// alpha^e for the generator alpha = 0x02.
  static std::uint8_t exp(int e);

  /// Discrete log base alpha; a must be nonzero.
  static int log(std::uint8_t a);

  /// a^n with n >= 0.
  static std::uint8_t pow(std::uint8_t a, int n);

  /// Precomputed nibble-split products of one fixed multiplier c.
  /// mul(x) is branchless: two loads and one XOR, valid for every x
  /// including 0 and c == 0.
  struct MulTable {
    std::array<std::uint8_t, 16> lo;  // c * 0x00..0x0F
    std::array<std::uint8_t, 16> hi;  // c * 0x00..0xF0 (high nibble)
    std::uint8_t mul(std::uint8_t x) const { return lo[x & 0x0F] ^ hi[x >> 4]; }
  };

  /// Builds the nibble-split table for multiplier c.
  static MulTable mul_table(std::uint8_t c);

  /// dst[i] ^= c * src[i] for i in [0, n).
  static void addmul_slice(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                           std::uint8_t c);

 private:
  struct Tables {
    std::array<std::uint8_t, 512> exp;
    std::array<int, 256> log;
  };
  static const Tables& tables();
};

}  // namespace wavekey::ecc
