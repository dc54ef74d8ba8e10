#include "protocol/key_agreement.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "crypto/hmac.hpp"
#include "crypto/stream_cipher.hpp"

namespace wavekey::protocol {
namespace {

constexpr std::size_t kGroupElementBytes = 32;
constexpr std::size_t kNonceBytes = 16;

// Parses an M_A or M_B payload: the type tag, a u32 count, then `count`
// 32-byte group elements and nothing more. A wrong tag, count or length is
// a WireError, and so is a non-canonical encoding: from_bytes reduces mod
// p, so x + p would otherwise parse as x and a man in the middle could
// rewrite M_A / M_B encodings undetected. A zero element, which is not in
// the group, is std::invalid_argument. Nothing is computed on a message
// until all of it has passed.
std::vector<crypto::Fe25519> read_elements(const Bytes& msg, MessageType type,
                                           std::size_t count, const char* who) {
  WireReader reader(msg);
  if (reader.u8() != static_cast<std::uint8_t>(type))
    throw WireError(std::string(who) + ": wrong message type");
  if (reader.u32() != count) throw WireError(std::string(who) + ": count mismatch");
  std::vector<crypto::Fe25519> elements;
  elements.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<const std::uint8_t> raw = reader.view(kGroupElementBytes);
    elements.push_back(crypto::Fe25519::from_bytes(raw));
    const auto canonical = elements.back().to_bytes();
    if (!std::equal(canonical.begin(), canonical.end(), raw.begin()))
      throw WireError(std::string(who) + ": group element encoding is not canonical");
    if (elements.back().is_zero())
      throw std::invalid_argument(std::string(who) + ": zero group element");
  }
  reader.expect_done();
  return elements;
}

Bytes write_elements(MessageType type, const std::vector<crypto::Fe25519>& elements) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(elements.size()));
  for (const crypto::Fe25519& e : elements) w.bytes(e.to_bytes());
  return w.take();
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

PadSender::PadSender(const AgreementParams& params, crypto::Drbg& rng)
    : a_(params.seed_bits),
      ma_(params.seed_bits, crypto::Fe25519::generator()),
      k1_factor_(params.seed_bits) {
  // The DRBG order (a_i, then its pad pair, per instance) is what the
  // pinned transcript fixes; the exponentiations follow in one batch each.
  // Within a pair x^1 is drawn before x^0, in separate statements: as two
  // arguments of one call the draws were unsequenced, and the pinned
  // order was only GCC's right-to-left argument evaluation.
  pads_.reserve(params.seed_bits);
  for (crypto::OtExponent& a : a_) {
    a = crypto::draw_ot_exponent(rng);
    BitVec x1 = rng.random_bits(params.pad_bits());
    BitVec x0 = rng.random_bits(params.pad_bits());
    pads_.emplace_back(std::move(x0), std::move(x1));
  }
  crypto::Fe25519::pow_batch(ma_, a_, ma_);
  // Exponents of a nonzero base may be reduced mod the group order p - 1,
  // so M_a^(-a) = g^(-a^2): one exponentiation per instance, on M_a.
  std::vector<crypto::OtExponent> neg(a_.size());
  std::transform(a_.begin(), a_.end(), neg.begin(), crypto::negate_ot_exponent);
  crypto::Fe25519::pow_batch(ma_, neg, k1_factor_);
}

Bytes PadSender::message_a() const { return write_elements(MessageType::kMsgA, ma_); }

Bytes PadSender::make_cipher_message(const Bytes& msg_b, crypto::Drbg& /*rng*/) const {
  std::vector<crypto::Fe25519> k0 =
      read_elements(msg_b, MessageType::kMsgB, a_.size(), "make_cipher_message");
  crypto::Fe25519::pow_batch(k0, a_, k0);  // M_b_i^{a_i}

  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kMsgE));
  w.u32(static_cast<std::uint32_t>(a_.size()));
  for (std::size_t i = 0; i < a_.size(); ++i) {
    const crypto::Fe25519 k1 = k0[i] * k1_factor_[i];  // (M_b_i / M_a_i)^{a_i}
    w.blob(crypto::stream_crypt(crypto::ot_derive_key(k0[i]), pads_[i].first.to_bytes()));
    w.blob(crypto::stream_crypt(crypto::ot_derive_key(k1), pads_[i].second.to_bytes()));
  }
  return w.take();
}

const BitVec& PadSender::pad(std::size_t i, bool bit) const {
  const auto& pair = pads_.at(i);
  return bit ? pair.second : pair.first;
}

PadReceiver::PadReceiver(const AgreementParams& params, crypto::Drbg& rng)
    : params_(params),
      b_(params.seed_bits),
      gb_(params.seed_bits, crypto::Fe25519::generator()) {
  for (crypto::OtExponent& b : b_) b = crypto::draw_ot_exponent(rng);
  crypto::Fe25519::pow_batch(gb_, b_, gb_);
}

PadReceiver::PadReceiver(const AgreementParams& params, const BitVec& seed, const Bytes& msg_a,
                         crypto::Drbg& rng)
    : PadReceiver(params, rng) {
  respond(seed, msg_a);
}

void PadReceiver::respond(const BitVec& seed, const Bytes& msg_a) {
  if (seed.size() != params_.seed_bits)
    throw std::invalid_argument("PadReceiver: seed length mismatch");
  if (phase_ != Phase::kPrecomputed)
    throw crypto::OtStateError("PadReceiver::respond: already responded");
  std::vector<crypto::Fe25519> ma =
      read_elements(msg_a, MessageType::kMsgA, b_.size(), "PadReceiver");
  mb_.resize(b_.size());
  for (std::size_t i = 0; i < b_.size(); ++i) mb_[i] = seed.get(i) ? ma[i] * gb_[i] : gb_[i];
  ma_ = std::move(ma);
  choices_ = seed;
  phase_ = Phase::kResponded;
}

Bytes PadReceiver::message_b() const {
  if (phase_ == Phase::kPrecomputed)
    throw crypto::OtStateError("PadReceiver::message_b: respond() has not run");
  return write_elements(MessageType::kMsgB, mb_);
}

std::vector<crypto::Digest256> PadReceiver::pad_keys() const {
  if (phase_ == Phase::kPrecomputed)
    throw crypto::OtStateError("PadReceiver: respond() has not run");
  std::vector<crypto::Fe25519> elements(b_.size());
  crypto::Fe25519::pow_batch(ma_, b_, elements);  // M_a_i^{b_i}
  std::vector<crypto::Digest256> keys(elements.size());
  std::transform(elements.begin(), elements.end(), keys.begin(), crypto::ot_derive_key);
  return keys;
}

void PadReceiver::derive_keys() {
  keys_ = pad_keys();
  phase_ = Phase::kKeysDerived;
}

std::vector<BitVec> PadReceiver::receive_pads(const Bytes& msg_e) const {
  if (phase_ == Phase::kPrecomputed)
    throw crypto::OtStateError("PadReceiver::receive_pads: respond() has not run");
  WireReader reader(msg_e);
  if (reader.u8() != static_cast<std::uint8_t>(MessageType::kMsgE))
    throw WireError("receive_pads: expected MsgE");
  if (reader.u32() != b_.size()) throw WireError("receive_pads: count mismatch");
  std::vector<std::span<const std::uint8_t>> chosen;  // views into msg_e
  chosen.reserve(b_.size());
  for (std::size_t i = 0; i < b_.size(); ++i) {
    const auto e0 = reader.view_blob();
    const auto e1 = reader.view_blob();
    chosen.push_back(choices_.get(i) ? e1 : e0);
    if (chosen.back().size() != params_.pad_bytes())
      throw WireError("receive_pads: bad pad length");
  }
  reader.expect_done();

  // The cached keys, or one batch over every instance if derive_keys()
  // was skipped.
  const std::vector<crypto::Digest256> keys =
      phase_ == Phase::kKeysDerived ? keys_ : pad_keys();
  std::vector<BitVec> pads;
  pads.reserve(b_.size());
  for (std::size_t i = 0; i < b_.size(); ++i)
    pads.push_back(
        BitVec::from_bytes(crypto::stream_crypt(keys[i], chosen[i]), params_.pad_bits()));
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
