#include "ecc/gf256.hpp"

#include <stdexcept>

namespace wavekey::ecc {

const Gf256::Tables& Gf256::tables() {
  static const Tables t = [] {
    Tables tt{};
    std::uint16_t x = 1;
    for (int i = 0; i < 255; ++i) {
      tt.exp[i] = static_cast<std::uint8_t>(x);
      tt.log[x] = i;
      x <<= 1;
      if (x & 0x100) x ^= 0x11D;
    }
    // Duplicate so exp lookups of (la + lb) need no modulo.
    for (int i = 255; i < 512; ++i) tt.exp[i] = tt.exp[i - 255];
    tt.log[0] = -1;
    return tt;
  }();
  return t;
}

std::uint8_t Gf256::mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = tables();
  return t.exp[static_cast<std::size_t>(t.log[a] + t.log[b])];
}

std::uint8_t Gf256::div(std::uint8_t a, std::uint8_t b) {
  if (b == 0) throw std::domain_error("Gf256::div by zero");
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp[static_cast<std::size_t>(t.log[a] - t.log[b] + 255)];
}

std::uint8_t Gf256::inv(std::uint8_t a) {
  if (a == 0) throw std::domain_error("Gf256::inv of zero");
  const auto& t = tables();
  return t.exp[static_cast<std::size_t>(255 - t.log[a])];
}

std::uint8_t Gf256::exp(int e) {
  const auto& t = tables();
  e %= 255;
  if (e < 0) e += 255;
  return t.exp[static_cast<std::size_t>(e)];
}

int Gf256::log(std::uint8_t a) {
  if (a == 0) throw std::domain_error("Gf256::log of zero");
  return tables().log[a];
}

std::uint8_t Gf256::pow(std::uint8_t a, int n) {
  if (n == 0) return 1;
  if (a == 0) return 0;
  const long e = static_cast<long>(log(a)) * n % 255;
  return exp(static_cast<int>(e));
}

Gf256::MulTable Gf256::mul_table(std::uint8_t c) {
  MulTable t;
  for (int i = 0; i < 16; ++i) {
    t.lo[static_cast<std::size_t>(i)] = mul(c, static_cast<std::uint8_t>(i));
    t.hi[static_cast<std::size_t>(i)] = mul(c, static_cast<std::uint8_t>(i << 4));
  }
  return t;
}

void Gf256::addmul_slice(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                         std::uint8_t c) {
  const MulTable t = mul_table(c);
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= t.mul(src[i]);
}

}  // namespace wavekey::ecc
