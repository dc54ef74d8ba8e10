#include "crypto/oblivious_transfer.hpp"

namespace wavekey::crypto {

OtExponent draw_ot_exponent(Drbg& rng) {
  OtExponent e;
  rng.random_bytes(e);
  // Clear the top bit so the exponent is < 2^255; uniform enough over the
  // (p-1)-order group for this protocol.
  e[31] &= 0x7F;
  return e;
}

OtExponent negate_ot_exponent(const OtExponent& a) {
  // Every a below 2^255 gives a result below 2^256 without reducing a mod
  // p - 1 first, and the subtraction has no data-dependent branch.
  // 2(p - 1) = 2^256 - 40, little-endian: 0xD8, then 31 bytes of 0xFF.
  OtExponent r;
  unsigned borrow = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned d = (i == 0 ? 0xD8u : 0xFFu) - a[i] - borrow;
    r[i] = static_cast<std::uint8_t>(d);
    borrow = (d >> 8) & 1;
  }
  return r;
}

Digest256 ot_derive_key(const Fe25519& element) { return Sha256::hash(element.to_bytes()); }

}  // namespace wavekey::crypto
