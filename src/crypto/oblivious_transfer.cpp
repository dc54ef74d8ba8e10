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
  return encrypt_k0(mb.pow(a_), secret0, secret1);
}

std::vector<Fe25519> OtSender::k0_elements(std::span<const OtSender> senders,
                                           std::span<const Fe25519> mbs) {
  if (mbs.size() != senders.size())
    throw std::invalid_argument("OtSender::k0_elements: size mismatch");
  std::vector<std::array<std::uint8_t, 32>> exponents;
  exponents.reserve(senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    if (mbs[i].is_zero()) throw std::invalid_argument("OtSender::encrypt: zero M_b");
    exponents.push_back(senders[i].a_);
  }
  std::vector<Fe25519> k0(senders.size());
  Fe25519::pow_batch(mbs, exponents, k0);
  return k0;
}

std::pair<Bytes, Bytes> OtSender::encrypt_k0(const Fe25519& k0_element,
                                             std::span<const std::uint8_t> secret0,
                                             std::span<const std::uint8_t> secret1) const {
  // (M_b / M_a)^a = M_b^a * g^(-a^2): on top of the one variable-base
  // exponentiation M_b^a, k_1 costs one multiply (k1_factor_ is precomputed
  // in the constructor).
  const Fe25519 k1_element = k0_element * k1_factor_;
  const Bytes k0 = ot_derive_key(k0_element);
  const Bytes k1 = ot_derive_key(k1_element);
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

std::vector<Bytes> OtReceiver::keys(std::span<const OtReceiver> receivers) {
  std::vector<Fe25519> bases;
  std::vector<std::array<std::uint8_t, 32>> exponents;
  bases.reserve(receivers.size());
  exponents.reserve(receivers.size());
  for (const OtReceiver& r : receivers) {
    if (!r.responded_) throw OtStateError("OtReceiver: respond() has not run");
    if (r.key_.empty()) {
      bases.push_back(r.ma_);
      exponents.push_back(r.b_);
    }
  }
  Fe25519::pow_batch(bases, exponents, bases);
  std::vector<Bytes> out;
  out.reserve(receivers.size());
  std::size_t next = 0;
  for (const OtReceiver& r : receivers)
    out.push_back(r.key_.empty() ? ot_derive_key(bases[next++]) : r.key_);
  return out;
}

void OtReceiver::derive_keys(std::span<OtReceiver> receivers) {
  std::vector<Bytes> derived = keys(receivers);
  for (std::size_t i = 0; i < receivers.size(); ++i) receivers[i].key_ = std::move(derived[i]);
}

Bytes OtReceiver::decrypt(const std::pair<Bytes, Bytes>& ciphertexts) const {
  return decrypt(ciphertexts, keys(std::span(this, 1)).front());
}

Bytes OtReceiver::decrypt(const std::pair<Bytes, Bytes>& ciphertexts,
                          const Bytes& pad_key) const {
  return stream_crypt(pad_key, choice_ ? ciphertexts.second : ciphertexts.first);
}

}  // namespace wavekey::crypto
