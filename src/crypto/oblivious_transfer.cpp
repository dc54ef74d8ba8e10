#include "crypto/oblivious_transfer.hpp"

#include <stdexcept>

#include "crypto/sha256.hpp"
#include "crypto/stream_cipher.hpp"

namespace wavekey::crypto {
namespace {

std::array<std::uint8_t, 32> draw_exponent(Drbg& rng) {
  std::array<std::uint8_t, 32> e;
  rng.random_bytes(e);
  // Clear the top bit so the exponent is < 2^255; uniform enough over the
  // (p-1)-order group for this protocol.
  e[31] &= 0x7F;
  return e;
}

}  // namespace

Bytes ot_derive_key(const Fe25519& element) {
  const auto bytes = element.to_bytes();
  const Digest256 d = Sha256::hash(bytes);
  return Bytes(d.begin(), d.end());
}

OtSender::OtSender(Drbg& rng) : a_(draw_exponent(rng)) {
  ma_ = Fe25519::generator_pow(a_);
  // Exponent arithmetic mod the group order p-1 is valid for any nonzero
  // base (Fermat), so -a^2 collapses to a single fixed-base exponentiation.
  k1_factor_ = Fe25519::generator_pow(
      Fe25519::exp_neg_mod_p_minus_1(Fe25519::exp_mul_mod_p_minus_1(a_, a_)));
}

std::pair<Bytes, Bytes> OtSender::encrypt(const Fe25519& mb,
                                          std::span<const std::uint8_t> secret0,
                                          std::span<const std::uint8_t> secret1) const {
  if (mb.is_zero()) throw std::invalid_argument("OtSender::encrypt: zero M_b");
  // (M_b / M_a)^a = M_b^a * g^(-a^2): the whole call costs one variable-base
  // exponentiation plus one multiply (k1_factor_ is precomputed in the
  // constructor).
  const Fe25519 k0_elem = mb.pow(a_);
  const Fe25519 k1_elem = k0_elem * k1_factor_;
  const Bytes k0 = ot_derive_key(k0_elem);
  const Bytes k1 = ot_derive_key(k1_elem);
  return {stream_crypt(k0, secret0), stream_crypt(k1, secret1)};
}

OtReceiver::OtReceiver(Drbg& rng) : b_(draw_exponent(rng)), gb_(Fe25519::generator_pow(b_)) {}

void OtReceiver::respond(bool choice, const Fe25519& ma) {
  if (responded_) throw OtStateError("OtReceiver::respond: already responded");
  if (ma.is_zero()) throw std::invalid_argument("OtReceiver: zero M_a");
  choice_ = choice;
  ma_ = ma;
  mb_ = choice_ ? ma_ * gb_ : gb_;
  responded_ = true;
}

const Fe25519& OtReceiver::response() const {
  if (!responded_) throw OtStateError("OtReceiver::response: respond() has not run");
  return mb_;
}

void OtReceiver::derive_key() {
  if (key_.empty()) key_ = key();
}

Bytes OtReceiver::key() const {
  if (!responded_) throw OtStateError("OtReceiver: respond() has not run");
  return ot_derive_key(ma_.pow(b_));
}

Bytes OtReceiver::decrypt(const std::pair<Bytes, Bytes>& ciphertexts) const {
  const Bytes& chosen = choice_ ? ciphertexts.second : ciphertexts.first;
  if (key_.empty()) return stream_crypt(key(), chosen);
  return stream_crypt(key_, chosen);
}

}  // namespace wavekey::crypto
