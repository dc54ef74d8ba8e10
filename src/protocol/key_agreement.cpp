#include "protocol/key_agreement.hpp"

#include <algorithm>
#include <cmath>

#include "crypto/hmac.hpp"

namespace wavekey::protocol {
namespace {

constexpr std::size_t kGroupElementBytes = 32;
constexpr std::size_t kNonceBytes = 16;

// Only the canonical encoding (< p) of a group element is accepted:
// from_bytes reduces mod p, so x + p would otherwise parse as x and a man in
// the middle could rewrite M_A / M_B encodings undetected.
crypto::Fe25519 read_element(WireReader& reader) {
  const Bytes raw = reader.bytes(kGroupElementBytes);
  const crypto::Fe25519 element = crypto::Fe25519::from_bytes(raw);
  const auto canonical = element.to_bytes();
  if (!std::equal(canonical.begin(), canonical.end(), raw.begin()))
    throw WireError("group element encoding is not canonical");
  return element;
}

}  // namespace

std::size_t AgreementParams::fuzzy_byte_budget() const {
  const auto max_bad_bits =
      static_cast<std::size_t>(std::floor(eta * static_cast<double>(seed_bits)));
  const std::size_t tolerated = std::max<std::size_t>(max_bad_bits, 1);
  // A bad seed bit corrupts one contiguous 2*l_b-bit segment, which can
  // straddle up to ceil(2*l_b/8) + 1 bytes.
  const std::size_t segment_bits = 2 * pad_bits();
  const std::size_t bytes_per_segment = (segment_bits + 7) / 8 + 1;
  return tolerated * bytes_per_segment;
}

PadSender::PadSender(const AgreementParams& params, crypto::Drbg& rng) : params_(params) {
  // The DRBG order (a_i, then its pad pair, per instance) is what the
  // pinned transcript fixes; the exponentiations follow in one batch.
  std::vector<crypto::OtExponent> exponents;
  exponents.reserve(params_.seed_bits);
  pads_.reserve(params_.seed_bits);
  for (std::size_t i = 0; i < params_.seed_bits; ++i) {
    exponents.push_back(crypto::draw_ot_exponent(rng));
    pads_.emplace_back(rng.random_bits(params_.pad_bits()), rng.random_bits(params_.pad_bits()));
  }
  senders_ = crypto::OtSender::batch(exponents);
}

Bytes PadSender::message_a() const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kMsgA));
  w.u32(static_cast<std::uint32_t>(senders_.size()));
  for (const auto& sender : senders_) w.bytes(sender.first_message().to_bytes());
  return w.take();
}

Bytes PadSender::make_cipher_message(const Bytes& msg_b, crypto::Drbg& /*rng*/) const {
  WireReader reader(msg_b);
  if (reader.u8() != static_cast<std::uint8_t>(MessageType::kMsgB))
    throw WireError("make_cipher_message: expected MsgB");
  if (reader.u32() != senders_.size()) throw WireError("make_cipher_message: count mismatch");

  // Parse and check all of M_B first, then run every M_b_i^{a_i} in one
  // batch: a malformed element fails the message before any exponentiation.
  std::vector<crypto::Fe25519> mbs;
  mbs.reserve(senders_.size());
  for (std::size_t i = 0; i < senders_.size(); ++i) mbs.push_back(read_element(reader));
  reader.expect_done();
  const std::vector<crypto::Fe25519> k0 = crypto::OtSender::k0_elements(senders_, mbs);

  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kMsgE));
  w.u32(static_cast<std::uint32_t>(senders_.size()));
  for (std::size_t i = 0; i < senders_.size(); ++i) {
    const Bytes p0 = pads_[i].first.to_bytes();
    const Bytes p1 = pads_[i].second.to_bytes();
    const auto [e0, e1] = senders_[i].encrypt_k0(k0[i], p0, p1);
    w.blob(e0);
    w.blob(e1);
  }
  return w.take();
}

const BitVec& PadSender::pad(std::size_t i, bool bit) const {
  const auto& pair = pads_.at(i);
  return bit ? pair.second : pair.first;
}

PadReceiver::PadReceiver(const AgreementParams& params, crypto::Drbg& rng) : params_(params) {
  std::vector<crypto::OtExponent> exponents(params_.seed_bits);
  for (auto& b : exponents) b = crypto::draw_ot_exponent(rng);
  receivers_ = crypto::OtReceiver::batch(exponents);
}

PadReceiver::PadReceiver(const AgreementParams& params, const BitVec& seed, const Bytes& msg_a,
                         crypto::Drbg& rng)
    : PadReceiver(params, rng) {
  respond(seed, msg_a);
}

void PadReceiver::respond(const BitVec& seed, const Bytes& msg_a) {
  if (seed.size() != params_.seed_bits)
    throw std::invalid_argument("PadReceiver: seed length mismatch");
  WireReader reader(msg_a);
  if (reader.u8() != static_cast<std::uint8_t>(MessageType::kMsgA))
    throw WireError("PadReceiver: expected MsgA");
  if (reader.u32() != params_.seed_bits) throw WireError("PadReceiver: count mismatch");
  for (std::size_t i = 0; i < params_.seed_bits; ++i)
    receivers_[i].respond(seed.get(i), read_element(reader));
  reader.expect_done();
}

Bytes PadReceiver::message_b() const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kMsgB));
  w.u32(static_cast<std::uint32_t>(receivers_.size()));
  for (const auto& receiver : receivers_) w.bytes(receiver.response().to_bytes());
  return w.take();
}

void PadReceiver::derive_keys() { crypto::OtReceiver::derive_keys(receivers_); }

std::vector<BitVec> PadReceiver::receive_pads(const Bytes& msg_e) const {
  WireReader reader(msg_e);
  if (reader.u8() != static_cast<std::uint8_t>(MessageType::kMsgE))
    throw WireError("receive_pads: expected MsgE");
  if (reader.u32() != receivers_.size()) throw WireError("receive_pads: count mismatch");

  std::vector<std::pair<Bytes, Bytes>> ciphertexts(receivers_.size());
  for (auto& [e0, e1] : ciphertexts) {
    e0 = reader.blob();
    e1 = reader.blob();
  }
  reader.expect_done();

  // The cached keys, or one batch over every instance if derive_keys()
  // was skipped.
  const std::vector<Bytes> keys = crypto::OtReceiver::keys(receivers_);
  std::vector<BitVec> pads;
  pads.reserve(receivers_.size());
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    const Bytes plain = receivers_[i].decrypt(ciphertexts[i], keys[i]);
    if (plain.size() != params_.pad_bytes()) throw WireError("receive_pads: bad pad length");
    pads.push_back(BitVec::from_bytes(plain, params_.pad_bits()));
  }
  return pads;
}

BitVec assemble_preliminary_key(const AgreementParams& params, const BitVec& seed,
                                const PadSender& own, const std::vector<BitVec>& received,
                                bool own_first) {
  if (seed.size() != params.seed_bits || received.size() != params.seed_bits)
    throw std::invalid_argument("assemble_preliminary_key: size mismatch");
  BitVec key;
  for (std::size_t i = 0; i < params.seed_bits; ++i) {
    const BitVec& own_pad = own.pad(i, seed.get(i));
    const BitVec& recv_pad = received[i];
    if (own_first) {
      key.append(own_pad);
      key.append(recv_pad);
    } else {
      key.append(recv_pad);
      key.append(own_pad);
    }
  }
  return key;
}

Bytes Challenge::serialize() const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kChallenge));
  w.blob(helper);
  w.bytes(nonce);
  return w.take();
}

Challenge Challenge::parse(const AgreementParams& /*params*/, const Bytes& wire) {
  WireReader reader(wire);
  if (reader.u8() != static_cast<std::uint8_t>(MessageType::kChallenge))
    throw WireError("Challenge::parse: wrong type");
  Challenge c;
  c.helper = reader.blob();
  c.nonce = reader.bytes(kNonceBytes);
  reader.expect_done();
  return c;
}

Challenge make_challenge(const AgreementParams& params, const BitVec& key_m,
                         crypto::Drbg& rng) {
  const ecc::FuzzyCommitment fc(params.prelim_key_bits(), params.fuzzy_byte_budget());
  Challenge c;
  c.helper = fc.commit(key_m, rng);
  c.nonce.resize(kNonceBytes);
  rng.random_bytes(c.nonce);
  return c;
}

std::optional<BitVec> recover_key(const AgreementParams& params, const Challenge& challenge,
                                  const BitVec& key_r) {
  const ecc::FuzzyCommitment fc(params.prelim_key_bits(), params.fuzzy_byte_budget());
  auto recovered = fc.recover(challenge.helper, key_r);
  if (!recovered) return std::nullopt;

  // Enforce eta exactly: the RS byte budget is sized for the worst-case
  // byte alignment, so favorable alignments could correct *more* than
  // floor(eta * l_s) bad segments. The server therefore re-checks that the
  // recovered key differs from its own K_R in at most the tolerated number
  // of 2*l_b-bit segments — this makes eta the precise acceptance boundary
  // that Eq. (4) analyzes.
  const std::size_t segment_bits = 2 * params.pad_bits();
  const std::size_t tolerated = static_cast<std::size_t>(
      std::floor(params.eta * static_cast<double>(params.seed_bits)));
  std::size_t bad_segments = 0;
  for (std::size_t i = 0; i < params.seed_bits; ++i) {
    const BitVec a = recovered->slice(i * segment_bits, segment_bits);
    const BitVec b = key_r.slice(i * segment_bits, segment_bits);
    if (!(a == b)) ++bad_segments;
  }
  if (bad_segments > std::max<std::size_t>(tolerated, 1)) return std::nullopt;
  return recovered;
}

Bytes make_response(const Challenge& challenge, const BitVec& key) {
  const auto key_bytes = key.to_bytes();
  const crypto::Digest256 mac = crypto::hmac_sha256(key_bytes, challenge.nonce);
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kResponse));
  w.bytes(mac);
  return w.take();
}

bool verify_response(const Challenge& challenge, const BitVec& key_m, const Bytes& response) {
  try {
    WireReader reader(response);
    if (reader.u8() != static_cast<std::uint8_t>(MessageType::kResponse)) return false;
    const Bytes mac = reader.bytes(32);
    reader.expect_done();
    const auto key_bytes = key_m.to_bytes();
    const crypto::Digest256 expected = crypto::hmac_sha256(key_bytes, challenge.nonce);
    crypto::Digest256 got{};
    std::copy(mac.begin(), mac.end(), got.begin());
    return crypto::digest_equal(expected, got);
  } catch (const WireError&) {
    return false;
  }
}

BitVec finalize_key(const AgreementParams& params, const BitVec& prelim_key) {
  return prelim_key.slice(0, params.key_bits);
}

}  // namespace wavekey::protocol
