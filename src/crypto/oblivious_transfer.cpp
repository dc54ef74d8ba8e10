#include "crypto/oblivious_transfer.hpp"

#include <stdexcept>

#include "crypto/sha256.hpp"
#include "crypto/stream_cipher.hpp"

namespace wavekey::crypto {
namespace {

// 2(p - 1) - a, an exponent congruent to -a modulo the group order p - 1,
// so x^negate_exponent(a) == (x^a)^-1 for nonzero x (Fermat). Every a below
// 2^255 gives a result below 2^256 without reducing a mod p - 1 first, and
// the subtraction has no data-dependent branch.
OtExponent negate_exponent(const OtExponent& a) {
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

}  // namespace

OtExponent draw_ot_exponent(Drbg& rng) {
  OtExponent e;
  rng.random_bytes(e);
  // Clear the top bit so the exponent is < 2^255; uniform enough over the
  // (p-1)-order group for this protocol.
  e[31] &= 0x7F;
  return e;
}

Bytes ot_derive_key(const Fe25519& element) {
  const auto bytes = element.to_bytes();
  const Digest256 d = Sha256::hash(bytes);
  return Bytes(d.begin(), d.end());
}

std::vector<OtSender> OtSender::batch(std::span<const OtExponent> exponents) {
  const std::size_t n = exponents.size();
  std::vector<Fe25519> ma(n, Fe25519::generator()), k1(n);
  Fe25519::pow_batch(ma, exponents, ma);
  // Exponents of a nonzero base may be reduced mod the group order p - 1,
  // so M_a^(-a) = g^(-a^2): one exponentiation per instance, on M_a.
  std::vector<OtExponent> neg(n);
  for (std::size_t i = 0; i < n; ++i) neg[i] = negate_exponent(exponents[i]);
  Fe25519::pow_batch(ma, neg, k1);
  std::vector<OtSender> senders;
  senders.reserve(n);
  for (std::size_t i = 0; i < n; ++i) senders.push_back(OtSender(exponents[i], ma[i], k1[i]));
  return senders;
}

std::vector<Fe25519> OtSender::k0_elements(std::span<const OtSender> senders,
                                           std::span<const Fe25519> mbs) {
  if (mbs.size() != senders.size())
    throw std::invalid_argument("OtSender::k0_elements: size mismatch");
  std::vector<OtExponent> exponents;
  exponents.reserve(senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    if (mbs[i].is_zero()) throw std::invalid_argument("OtSender::k0_elements: zero M_b");
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
  // in batch()).
  const Fe25519 k1_element = k0_element * k1_factor_;
  const Bytes k0 = ot_derive_key(k0_element);
  const Bytes k1 = ot_derive_key(k1_element);
  return {stream_crypt(k0, secret0), stream_crypt(k1, secret1)};
}

std::vector<OtReceiver> OtReceiver::batch(std::span<const OtExponent> exponents) {
  std::vector<Fe25519> gb(exponents.size(), Fe25519::generator());
  Fe25519::pow_batch(gb, exponents, gb);
  std::vector<OtReceiver> receivers;
  receivers.reserve(exponents.size());
  for (std::size_t i = 0; i < exponents.size(); ++i)
    receivers.push_back(OtReceiver(exponents[i], gb[i]));
  return receivers;
}

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
  std::vector<OtExponent> exponents;
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

Bytes OtReceiver::decrypt(const std::pair<Bytes, Bytes>& ciphertexts,
                          const Bytes& pad_key) const {
  return stream_crypt(pad_key, choice_ ? ciphertexts.second : ciphertexts.first);
}

}  // namespace wavekey::crypto
