// Tests of the key-agreement protocol: wire framing, the bidirectional OT
// pad exchange, seed-to-key agreement under controlled seed noise, the
// fuzzy-commitment reconciliation bounds, the tau deadline, and adversarial
// interceptors (tamper/delay/drop/eavesdrop).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "numeric/rng.hpp"
#include "protocol/key_agreement.hpp"
#include "protocol/session.hpp"
#include "protocol/wire.hpp"

namespace wavekey::protocol {
namespace {

BitVec flip_bits(BitVec seed, std::initializer_list<std::size_t> positions) {
  for (std::size_t p : positions) seed.set(p, !seed.get(p));
  return seed;
}

// Offset of instance i's group element in an M_A / M_B payload: a type
// byte, a u32 count, then 32 bytes per instance.
constexpr std::size_t element_offset(std::size_t i) { return 5 + 32 * i; }

// Re-encodes the element x at `offset` as x + p: the same field element, a
// different 32-byte string (x + p < 2p < 2^256).
void add_p(Bytes& payload, std::size_t offset) {
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {  // little-endian add of p = 2^255 - 19
    const unsigned p_byte = i == 0 ? 0xED : i == 31 ? 0x7F : 0xFF;
    const unsigned sum = payload[offset + i] + p_byte + carry;
    payload[offset + i] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
}

TEST(WireTest, RoundTrip) {
  WireWriter w;
  w.u8(7);
  w.u32(0xDEADBEEF);
  const Bytes blob_data{1, 2, 3, 4, 5};
  w.blob(blob_data);
  w.bytes(std::array<std::uint8_t, 2>{9, 8});
  const Bytes wire = w.take();

  WireReader r(wire);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.blob(), blob_data);
  EXPECT_EQ(r.bytes(2), (Bytes{9, 8}));
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.expect_done());
}

TEST(WireTest, UnderrunThrows) {
  const Bytes short_wire{1, 2};
  WireReader r(short_wire);
  EXPECT_THROW(r.u32(), WireError);
  WireReader r2(short_wire);
  EXPECT_THROW(r2.bytes(3), WireError);
}

TEST(WireTest, TrailingBytesDetected) {
  const Bytes wire{1, 2, 3};
  WireReader r(wire);
  (void)r.u8();
  EXPECT_THROW(r.expect_done(), WireError);
}

TEST(AgreementParamsTest, PadAndKeyArithmetic) {
  AgreementParams p;
  p.seed_bits = 48;
  p.key_bits = 256;
  // l_b = ceil(256 / 96) = 3, prelim = 2*48*3 = 288 >= 256.
  EXPECT_EQ(p.pad_bits(), 3u);
  EXPECT_GE(p.prelim_key_bits(), p.key_bits);

  p.key_bits = 2048;  // l_b = ceil(2048/96) = 22
  EXPECT_EQ(p.pad_bits(), 22u);
  EXPECT_EQ(p.prelim_key_bits(), 2u * 48u * 22u);
}

TEST(AgreementParamsTest, FuzzyBudgetScalesWithEta) {
  AgreementParams p;
  p.seed_bits = 48;
  p.key_bits = 256;
  p.eta = 0.10;  // tolerates 4 bad seed bits
  const std::size_t budget_04 = p.fuzzy_byte_budget();
  p.eta = 0.20;  // tolerates 9
  EXPECT_GT(p.fuzzy_byte_budget(), budget_04);
}

class AgreementTest : public ::testing::Test {
 protected:
  SessionConfig config_ = [] {
    SessionConfig c;
    c.params.seed_bits = 48;
    c.params.key_bits = 256;
    c.params.eta = 0.10;
    return c;
  }();
  crypto::Drbg mobile_rng_{101};
  crypto::Drbg server_rng_{202};
  crypto::Drbg seed_rng_{303};
};

TEST_F(AgreementTest, IdenticalSeedsYieldMatchingKeys) {
  const BitVec seed = seed_rng_.random_bits(48);
  const SessionResult r =
      run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_);
  ASSERT_TRUE(r.success) << static_cast<int>(r.failure);
  EXPECT_EQ(r.mobile_key, r.server_key);
  EXPECT_EQ(r.mobile_key.size(), 256u);
  EXPECT_GT(r.elapsed_s, config_.gesture_window_s);
  EXPECT_LT(r.elapsed_s, config_.gesture_window_s + 1.0);
}

TEST_F(AgreementTest, ToleratedSeedNoiseStillAgreesOnMobileKey) {
  const BitVec seed_m = seed_rng_.random_bits(48);
  // eta = 0.10 over 48 bits tolerates floor(4.8) = 4 flips.
  const BitVec seed_r = flip_bits(seed_m, {3, 17, 29, 41});
  const SessionResult r =
      run_key_agreement(config_, seed_m, seed_r, mobile_rng_, server_rng_);
  ASSERT_TRUE(r.success) << static_cast<int>(r.failure);
  // Reconciliation converges on the *mobile's* key.
  EXPECT_EQ(r.mobile_key, r.server_key);
}

TEST_F(AgreementTest, ExcessSeedNoiseFailsCleanly) {
  const BitVec seed_m = seed_rng_.random_bits(48);
  BitVec seed_r = seed_m;
  for (std::size_t i = 0; i < 20; ++i) seed_r.set(i * 2, !seed_r.get(i * 2));
  const SessionResult r =
      run_key_agreement(config_, seed_m, seed_r, mobile_rng_, server_rng_);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureReason::kReconciliationFailed);
}

TEST_F(AgreementTest, KeysAreFreshAcrossSessions) {
  const BitVec seed = seed_rng_.random_bits(48);
  const SessionResult r1 =
      run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_);
  const SessionResult r2 =
      run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_);
  ASSERT_TRUE(r1.success && r2.success);
  // Same seeds, but the pads are fresh randomness: keys must differ.
  EXPECT_NE(r1.mobile_key, r2.mobile_key);
}

TEST_F(AgreementTest, LongKeysWork) {
  config_.params.key_bits = 2048;
  const BitVec seed = seed_rng_.random_bits(48);
  const BitVec seed_r = flip_bits(seed, {7, 22});
  const SessionResult r =
      run_key_agreement(config_, seed, seed_r, mobile_rng_, server_rng_);
  ASSERT_TRUE(r.success) << static_cast<int>(r.failure);
  EXPECT_EQ(r.mobile_key.size(), 2048u);
  EXPECT_EQ(r.mobile_key, r.server_key);
}

TEST_F(AgreementTest, DeadlineEnforcedOnSlowCompute) {
  config_.mobile_compute_s = 0.5;  // way past tau = 120 ms
  const BitVec seed = seed_rng_.random_bits(48);
  const SessionResult r =
      run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureReason::kDeadlineExceeded);
}

TEST_F(AgreementTest, DeadlineEnforcedOnDelayedMessage) {
  // M_A,R leaves inside the window, so only a hold past window + tau makes
  // it late.
  const BitVec seed = seed_rng_.random_bits(48);
  const double hold = config_.gesture_window_s + config_.tau_s;
  const Interceptor delayer = [hold](InFlightMessage& msg) -> double {
    return msg.type == MessageType::kMsgA && msg.from == "server" ? hold : 0.0;
  };
  const SessionResult r =
      run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_, delayer);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureReason::kDeadlineExceeded);
}

TEST_F(AgreementTest, DeadlineEnforcedOnDelayedServerResponse) {
  // A rogue reader impersonating the server to the phone must also answer
  // inside tau: M_B,R carries the server's seed-dependent choices.
  const BitVec seed = seed_rng_.random_bits(48);
  const double hold = config_.tau_s + 0.001;
  const Interceptor delayer = [hold](InFlightMessage& msg) -> double {
    return msg.type == MessageType::kMsgB && msg.from == "server" ? hold : 0.0;
  };
  const SessionResult r =
      run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_, delayer);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureReason::kDeadlineExceeded);
  EXPECT_GT(r.critical_arrival_s, config_.gesture_window_s + config_.tau_s);
}

TEST_F(AgreementTest, DroppedMessageFailsCleanly) {
  const BitVec seed = seed_rng_.random_bits(48);
  const Interceptor dropper = [](InFlightMessage& msg) -> double {
    return msg.type == MessageType::kMsgE ? -1.0 : 0.0;
  };
  const SessionResult r =
      run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_, dropper);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureReason::kMessageDropped);
}

TEST_F(AgreementTest, TamperedOtMessageNeverYieldsAgreedKey) {
  // MitM flips one bit in the mobile's M_B. The affected OT instance derives
  // a garbage pad on one side; the session must fail (reconciliation or
  // HMAC), never silently "succeed" with different keys.
  for (std::size_t bit : {40u, 400u, 4000u}) {
    crypto::Drbg m_rng(bit * 7 + 1), s_rng(bit * 13 + 2), s2(bit);
    const BitVec seed = s2.random_bits(48);
    const Interceptor tamper = [bit](InFlightMessage& msg) -> double {
      if (msg.type == MessageType::kMsgB && msg.from == "mobile") {
        const std::size_t b = bit % (msg.payload.size() * 8);
        msg.payload[b / 8] ^= static_cast<std::uint8_t>(1u << (b % 8));
      }
      return 0.0;
    };
    const SessionResult r = run_key_agreement(config_, seed, seed, m_rng, s_rng, tamper);
    if (r.success) {
      EXPECT_EQ(r.mobile_key, r.server_key) << "bit " << bit;
    } else {
      EXPECT_NE(r.failure, FailureReason::kNone);
    }
  }
}

TEST_F(AgreementTest, NonCanonicalGroupElementIsMalformed) {
  // MitM re-encodes the first element x of the mobile's M_A as x + p: the
  // same field element, a different 32-byte string (x + p < 2p < 2^256).
  // Reduced silently, the session would still agree on a key; the element
  // parser must reject the encoding and the session fail typed.
  const BitVec seed = seed_rng_.random_bits(48);
  const Interceptor reencode = [](InFlightMessage& msg) -> double {
    if (msg.type == MessageType::kMsgA && msg.from == "mobile")
      add_p(msg.payload, element_offset(0));
    return 0.0;
  };
  const SessionResult r =
      run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_, reencode);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureReason::kMalformedMessage) << failure_reason_name(r.failure);
}

// M_B is parsed and checked whole before the batched M_b^a runs: a bad
// element at the first or the last of 96 instances ends the session typed,
// and neither party sends M_E.
void expect_bad_response_is_malformed(const SessionConfig& config,
                                      void (*corrupt)(Bytes&, std::size_t)) {
  for (const std::size_t instance : {std::size_t{0}, config.params.seed_bits - 1}) {
    SCOPED_TRACE(instance);
    std::vector<MessageType> sent;
    const Interceptor tamper = [&](InFlightMessage& msg) -> double {
      sent.push_back(msg.type);
      if (msg.type == MessageType::kMsgB && msg.from == "mobile")
        corrupt(msg.payload, element_offset(instance));
      return 0.0;
    };
    crypto::Drbg mobile_rng(101), server_rng(202), seed_rng(303);
    const BitVec seed = seed_rng.random_bits(config.params.seed_bits);
    const SessionResult r = run_key_agreement(config, seed, seed, mobile_rng, server_rng, tamper);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.failure, FailureReason::kMalformedMessage) << failure_reason_name(r.failure);
    EXPECT_EQ(std::count(sent.begin(), sent.end(), MessageType::kMsgB), 2);
    EXPECT_EQ(std::count(sent.begin(), sent.end(), MessageType::kMsgE), 0);
  }
}

TEST_F(AgreementTest, ZeroResponseElementAtEitherEndIsMalformed) {
  SessionConfig config = config_;
  config.params.seed_bits = 96;
  expect_bad_response_is_malformed(config, [](Bytes& payload, std::size_t offset) {
    std::fill_n(payload.begin() + static_cast<std::ptrdiff_t>(offset), 32, std::uint8_t{0});
  });
}

TEST_F(AgreementTest, NonCanonicalResponseElementAtEitherEndIsMalformed) {
  SessionConfig config = config_;
  config.params.seed_bits = 96;
  expect_bad_response_is_malformed(config, add_p);
}

TEST_F(AgreementTest, TamperedChallengeFailsHmac) {
  const BitVec seed = seed_rng_.random_bits(48);
  const Interceptor tamper = [](InFlightMessage& msg) -> double {
    if (msg.type == MessageType::kChallenge && msg.payload.size() > 10)
      msg.payload[msg.payload.size() - 1] ^= 0x01;  // corrupt the nonce
    return 0.0;
  };
  const SessionResult r =
      run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_, tamper);
  EXPECT_FALSE(r.success);
}

TEST_F(AgreementTest, TranscriptDoesNotContainKey) {
  // Eavesdropper records everything; neither final key may appear in the
  // transcript as a contiguous byte string.
  Bytes transcript;
  const Interceptor eave = [&transcript](InFlightMessage& msg) -> double {
    transcript.insert(transcript.end(), msg.payload.begin(), msg.payload.end());
    return 0.0;
  };
  const BitVec seed = seed_rng_.random_bits(48);
  const SessionResult r =
      run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_, eave);
  ASSERT_TRUE(r.success);
  EXPECT_GT(transcript.size(), 1000u);

  const auto key_bytes = r.mobile_key.to_bytes();
  // Search for any 8-byte window of the key in the transcript.
  bool found = false;
  for (std::size_t off = 0; off + 8 <= key_bytes.size() && !found; ++off) {
    const auto it = std::search(transcript.begin(), transcript.end(),
                                key_bytes.begin() + static_cast<std::ptrdiff_t>(off),
                                key_bytes.begin() + static_cast<std::ptrdiff_t>(off + 8));
    found = it != transcript.end();
  }
  EXPECT_FALSE(found);
}

TEST_F(AgreementTest, SeedIndependentWorkRunsInsideTheGestureWindow) {
  // Deterministic timeline, no wall-clock bound: the OT precompute runs
  // while the gesture is recorded and the mobile's M_A leaves when it ends;
  // its M_B waits for recording plus its configured compute.
  config_.mobile_compute_s = 0.010;
  const BitVec seed = seed_rng_.random_bits(48);
  double sent_a = -1.0, sent_b = -1.0;
  const Interceptor watch = [&](InFlightMessage& msg) -> double {
    if (msg.from != "mobile") return 0.0;
    if (msg.type == MessageType::kMsgA) sent_a = msg.send_time;
    if (msg.type == MessageType::kMsgB) sent_b = msg.send_time;
    return 0.0;
  };
  ASSERT_TRUE(run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_, watch).success);
  EXPECT_LT(sent_a, config_.gesture_window_s);
  EXPECT_GE(sent_b, config_.gesture_window_s + config_.mobile_compute_s);

  // With no window to hide in, the precompute is charged before M_A leaves
  // and before the compute that precedes M_B.
  config_.gesture_window_s = 0.0;
  (void)run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_, watch);
  EXPECT_GT(sent_a, 0.0);
  EXPECT_GT(sent_b, config_.mobile_compute_s);
}

TEST_F(AgreementTest, OnlyTheTwoMaMessagesLeaveInsideTheWindow) {
  // The message schedule on the session clock: both M_A leave during the
  // gesture, every other message after it. Four flights follow the window
  // on the key-ready path: M_B, M_E, the challenge and the response.
  const BitVec seed = seed_rng_.random_bits(48);
  std::vector<MessageType> inside, after;
  const Interceptor watch = [&](InFlightMessage& msg) -> double {
    (msg.send_time < config_.gesture_window_s ? inside : after).push_back(msg.type);
    return 0.0;
  };
  ASSERT_TRUE(run_key_agreement(config_, seed, seed, mobile_rng_, server_rng_, watch).success);
  using T = MessageType;
  EXPECT_EQ(inside, (std::vector<MessageType>{T::kMsgA, T::kMsgA}));
  EXPECT_EQ(after, (std::vector<MessageType>{T::kMsgB, T::kMsgB, T::kMsgE, T::kMsgE,
                                             T::kChallenge, T::kResponse}));
}

TEST(TranscriptGoldenTest, PayloadsAndKeysMatchPinnedDigest) {
  // Byte identity of the whole protocol: for fixed Drbg seeds, SHA-256 over
  // every message payload in send order, then both final keys, of two
  // sessions (identical seeds; three tolerated flips). A reordering of the
  // party timelines must leave every byte, and the Drbg draw order, alone.
  SessionConfig config;
  config.params.seed_bits = 48;
  config.params.key_bits = 256;
  config.params.eta = 0.10;
  crypto::Sha256 h;
  std::vector<MessageType> order;
  const Interceptor record = [&](InFlightMessage& msg) -> double {
    h.update(msg.payload);
    order.push_back(msg.type);
    return 0.0;
  };
  crypto::Drbg seed_rng(303);
  const BitVec seed = seed_rng.random_bits(48);
  for (const BitVec& seed_r : {seed, flip_bits(seed, {2, 25, 47})}) {
    crypto::Drbg mobile_rng(101), server_rng(202);
    const SessionResult r =
        run_key_agreement(config, seed, seed_r, mobile_rng, server_rng, record);
    ASSERT_TRUE(r.success) << failure_reason_name(r.failure);
    h.update(r.mobile_key.to_bytes());
    h.update(r.server_key.to_bytes());
  }
  using T = MessageType;
  const std::vector<MessageType> one = {T::kMsgA, T::kMsgA, T::kMsgB,      T::kMsgB,
                                        T::kMsgE, T::kMsgE, T::kChallenge, T::kResponse};
  std::vector<MessageType> both = one;
  both.insert(both.end(), one.begin(), one.end());
  EXPECT_EQ(order, both);
  std::string hex;
  for (const auto byte : h.finalize()) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xF];
  }
  EXPECT_EQ(hex, "369f6caffb6616384b459d5e3ca39248eb5e752912e00c0e5546161a1fd5fb28");
}

TEST(SessionCodeGoldenTest, CommitAndMaxErrorRecoverMatchPinnedDigest) {
  // The fuzzy commitment at the shipped session shape: the default
  // parameters give a 288-bit preliminary key (36 bytes) and a budget of 8
  // byte errors, so one RS(52, 36) codeword with 16 parity bytes. Pins the
  // helper strings and the keys recovered through a full decode with the
  // maximum number of correctable byte errors.
  const AgreementParams params;
  const ecc::FuzzyCommitment fc(params.prelim_key_bits(), params.fuzzy_byte_budget());
  ASSERT_EQ(fc.num_chunks(), 1u);
  ASSERT_EQ(fc.helper_size(), 52u);
  const std::size_t key_bytes = params.prelim_key_bits() / 8;
  const std::size_t max_errors = params.fuzzy_byte_budget();
  crypto::Drbg rng(7919);
  Rng positions(7919);
  crypto::Sha256 h;
  for (int trial = 0; trial < 8; ++trial) {
    const BitVec key = rng.random_bits(params.prelim_key_bits());
    const std::vector<std::uint8_t> helper = fc.commit(key, rng);
    h.update(helper);
    std::vector<std::uint8_t> noisy = key.to_bytes();
    std::vector<std::size_t> idx(key_bytes);
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (std::size_t e = 0; e < max_errors; ++e) {
      std::swap(idx[e], idx[e + positions.uniform_u64(key_bytes - e)]);
      noisy[idx[e]] ^= static_cast<std::uint8_t>(1 + positions.uniform_u64(255));
    }
    const auto recovered =
        fc.recover(helper, BitVec::from_bytes(noisy, params.prelim_key_bits()));
    ASSERT_TRUE(recovered.has_value()) << "trial " << trial;
    ASSERT_EQ(*recovered, key) << "trial " << trial;
    h.update(recovered->to_bytes());
  }
  std::string hex;
  for (const auto byte : h.finalize()) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xF];
  }
  EXPECT_EQ(hex, "c76915a07f8a1cde793257850f11feb3b46046077ffea42c597335858ed5c464");
}

TEST(PadExchangeTest, ReceiverGetsExactlyChosenPads) {
  AgreementParams params;
  params.seed_bits = 16;
  params.key_bits = 128;
  crypto::Drbg sender_rng(11), receiver_rng(22), seed_rng(33);
  const BitVec seed = seed_rng.random_bits(16);

  const PadSender sender(params, sender_rng);
  const PadReceiver receiver(params, seed, sender.message_a(), receiver_rng);
  const Bytes msg_e = sender.make_cipher_message(receiver.message_b(), sender_rng);
  const std::vector<BitVec> pads = receiver.receive_pads(msg_e);
  ASSERT_EQ(pads.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(pads[i], sender.pad(i, seed.get(i))) << i;
    EXPECT_NE(pads[i], sender.pad(i, !seed.get(i))) << i;
  }
}

TEST(PadExchangeTest, PhasedReceiverMatchesOneShotConstructor) {
  // Precompute, respond and derive_keys as separate steps draw the DRBG in
  // the same order as the one-shot constructor: same M_B, same pads.
  AgreementParams params;
  params.seed_bits = 16;
  params.key_bits = 128;
  crypto::Drbg sender_rng(12), seed_rng(34);
  const BitVec seed = seed_rng.random_bits(16);
  const PadSender sender(params, sender_rng);
  const Bytes msg_a = sender.message_a();

  crypto::Drbg one_rng(56), phased_rng(56);
  const PadReceiver one_shot(params, seed, msg_a, one_rng);
  PadReceiver phased(params, phased_rng);
  phased.respond(seed, msg_a);
  ASSERT_EQ(phased.message_b(), one_shot.message_b());
  EXPECT_EQ(phased_rng.random_bits(64), one_rng.random_bits(64));

  phased.derive_keys();
  const Bytes msg_e = sender.make_cipher_message(one_shot.message_b(), sender_rng);
  const std::vector<BitVec> pads = phased.receive_pads(msg_e);
  EXPECT_EQ(pads, one_shot.receive_pads(msg_e));  // no explicit derive_keys
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(pads[i], sender.pad(i, seed.get(i))) << i;
}

TEST(PadExchangeTest, ReceivePadsWithoutDeriveKeysMatchesDerived) {
  // The session-sized batch: receive_pads batches the pad keys itself when
  // derive_keys() was skipped, and must return the same pads.
  AgreementParams params;
  params.seed_bits = 96;
  params.key_bits = 256;
  crypto::Drbg sender_rng(13), seed_rng(35);
  const BitVec seed = seed_rng.random_bits(96);
  const PadSender sender(params, sender_rng);
  crypto::Drbg derived_rng(57), lazy_rng(57);
  PadReceiver derived(params, seed, sender.message_a(), derived_rng);
  const PadReceiver lazy(params, seed, sender.message_a(), lazy_rng);
  derived.derive_keys();
  const Bytes msg_e = sender.make_cipher_message(derived.message_b(), sender_rng);
  const std::vector<BitVec> pads = lazy.receive_pads(msg_e);
  EXPECT_EQ(pads, derived.receive_pads(msg_e));
  ASSERT_EQ(pads.size(), 96u);
  for (std::size_t i = 0; i < 96; ++i) EXPECT_EQ(pads[i], sender.pad(i, seed.get(i))) << i;
}

TEST(PadExchangeTest, PhasesOutOfOrderThrowTypedErrors) {
  AgreementParams params;
  params.seed_bits = 8;
  params.key_bits = 64;
  crypto::Drbg rng(45);
  const PadSender sender(params, rng);
  PadReceiver receiver(params, rng);
  EXPECT_THROW((void)receiver.message_b(), crypto::OtStateError);
  EXPECT_THROW(receiver.respond(rng.random_bits(9), sender.message_a()), std::invalid_argument);
  receiver.respond(rng.random_bits(8), sender.message_a());
  EXPECT_THROW(receiver.respond(rng.random_bits(8), sender.message_a()), crypto::OtStateError);
}

TEST(PadExchangeTest, RejectedMsgALeavesReceiverUnresponded) {
  // M_A is checked whole before the receiver changes state: a zero element
  // past the first instance rejects the message, and the genuine M_A is
  // then accepted as if the forged one never came.
  AgreementParams params;
  params.seed_bits = 8;
  params.key_bits = 64;
  crypto::Drbg sender_rng(46), receiver_rng(47), seed_rng(48);
  const BitVec seed = seed_rng.random_bits(8);
  const PadSender sender(params, sender_rng);
  Bytes forged = sender.message_a();
  std::fill_n(forged.begin() + static_cast<std::ptrdiff_t>(element_offset(5)), 32,
              std::uint8_t{0});
  PadReceiver receiver(params, receiver_rng);
  EXPECT_THROW(receiver.respond(seed, forged), std::invalid_argument);
  EXPECT_THROW((void)receiver.message_b(), crypto::OtStateError);
  receiver.respond(seed, sender.message_a());
  const Bytes msg_e = sender.make_cipher_message(receiver.message_b(), sender_rng);
  const std::vector<BitVec> pads = receiver.receive_pads(msg_e);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(pads[i], sender.pad(i, seed.get(i))) << i;
}

TEST(PadExchangeTest, ReceiverCannotDecryptOtherSecret) {
  // With e0 and e1 swapped in every instance of M_E, the receiver's key
  // opens the pad it did not choose: it must learn neither pad. 64-bit
  // pads, so that no pad matches garbage by chance.
  AgreementParams params;
  params.seed_bits = 16;
  params.key_bits = 2048;
  crypto::Drbg sender_rng(61), receiver_rng(62), seed_rng(63);
  const BitVec seed = seed_rng.random_bits(16);
  const PadSender sender(params, sender_rng);
  const PadReceiver receiver(params, seed, sender.message_a(), receiver_rng);
  const Bytes msg_e = sender.make_cipher_message(receiver.message_b(), sender_rng);
  WireReader reader(msg_e);
  WireWriter swapped;
  swapped.u8(reader.u8());
  swapped.u32(reader.u32());
  for (std::size_t i = 0; i < 16; ++i) {
    const Bytes e0 = reader.blob();
    swapped.blob(reader.blob());
    swapped.blob(e0);
  }
  reader.expect_done();
  const std::vector<BitVec> pads = receiver.receive_pads(swapped.take());
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NE(pads[i], sender.pad(i, false)) << i;
    EXPECT_NE(pads[i], sender.pad(i, true)) << i;
  }
}

TEST(PadExchangeTest, SenderMessagesLookUniformAcrossChoices) {
  // The sender must not be able to tell which pad was selected: M_b for
  // choice 0 and choice 1 are both uniformly random group elements. Spot
  // check that nothing about M_b trivially leaks the choice bit: for the
  // same b_i, neither response equals M_a_i, nor each other.
  AgreementParams params;
  params.seed_bits = 8;
  params.key_bits = 64;
  crypto::Drbg sender_rng(64);
  const PadSender sender(params, sender_rng);
  const Bytes msg_a = sender.message_a();
  BitVec ones(8);
  for (std::size_t i = 0; i < 8; ++i) ones.set(i, true);
  crypto::Drbg rng0(65), rng1(65);
  const Bytes mb0 = PadReceiver(params, BitVec(8), msg_a, rng0).message_b();
  const Bytes mb1 = PadReceiver(params, ones, msg_a, rng1).message_b();
  const auto element = [](const Bytes& msg, std::size_t i) {
    const auto begin = msg.begin() + static_cast<std::ptrdiff_t>(element_offset(i));
    return Bytes(begin, begin + 32);
  };
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NE(element(mb0, i), element(msg_a, i)) << i;
    EXPECT_NE(element(mb1, i), element(msg_a, i)) << i;
    EXPECT_NE(element(mb0, i), element(mb1, i)) << i;
  }
}

TEST(PadExchangeTest, RejectsZeroGroupElements) {
  // Zero is not in the group: a zero M_a or M_b, first or last, is refused
  // before any exponentiation with it.
  AgreementParams params;
  params.seed_bits = 8;
  params.key_bits = 64;
  crypto::Drbg rng(66);
  const PadSender sender(params, rng);
  const BitVec seed = rng.random_bits(8);
  const PadReceiver receiver(params, seed, sender.message_a(), rng);
  for (const std::size_t instance : {std::size_t{0}, std::size_t{7}}) {
    SCOPED_TRACE(instance);
    const auto zero = [&](Bytes msg) {
      std::fill_n(msg.begin() + static_cast<std::ptrdiff_t>(element_offset(instance)), 32,
                  std::uint8_t{0});
      return msg;
    };
    EXPECT_THROW(PadReceiver(params, seed, zero(sender.message_a()), rng),
                 std::invalid_argument);
    EXPECT_THROW((void)sender.make_cipher_message(zero(receiver.message_b()), rng),
                 std::invalid_argument);
  }
}

TEST(PadExchangeTest, MalformedMessagesThrowWireError) {
  AgreementParams params;
  params.seed_bits = 8;
  params.key_bits = 64;
  crypto::Drbg rng(44);
  const PadSender sender(params, rng);
  Bytes msg_a = sender.message_a();
  msg_a[0] = 99;  // wrong type tag
  EXPECT_THROW(PadReceiver(params, rng.random_bits(8), msg_a, rng), WireError);
  Bytes truncated = sender.message_a();
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(PadReceiver(params, rng.random_bits(8), truncated, rng), WireError);
}

// The OT itself, one phase of the receiver's whole batch at a time.

TEST(ObliviousTransferTest, ReceiverGetsChosenSecret) {
  // Two instances, one per choice bit: each opens the secret it chose.
  AgreementParams params;
  params.seed_bits = 2;
  params.key_bits = 256;
  crypto::Drbg rng(60);
  BitVec choices(2);
  choices.set(1, true);
  const PadSender sender(params, rng);
  const PadReceiver receiver(params, choices, sender.message_a(), rng);
  const Bytes msg_e = sender.make_cipher_message(receiver.message_b(), rng);
  const std::vector<BitVec> secrets = receiver.receive_pads(msg_e);
  ASSERT_EQ(secrets.size(), 2u);
  EXPECT_EQ(secrets[0], sender.pad(0, false));
  EXPECT_EQ(secrets[1], sender.pad(1, true));
}

TEST(ObliviousTransferTest, PhasesOutOfOrderThrowStateError) {
  // Before respond() there is no M_B, no key to derive and no pad to open;
  // after it, a second respond() is refused.
  AgreementParams params;
  params.seed_bits = 8;
  params.key_bits = 64;
  crypto::Drbg rng(65);
  const PadSender sender(params, rng);
  PadReceiver receiver(params, rng);
  const PadReceiver peer(params, rng.random_bits(8), sender.message_a(), rng);
  const Bytes msg_e = sender.make_cipher_message(peer.message_b(), rng);
  EXPECT_THROW((void)receiver.message_b(), crypto::OtStateError);
  EXPECT_THROW(receiver.derive_keys(), crypto::OtStateError);
  EXPECT_THROW((void)receiver.receive_pads(msg_e), crypto::OtStateError);
  receiver.respond(rng.random_bits(8), sender.message_a());
  EXPECT_THROW(receiver.respond(rng.random_bits(8), sender.message_a()), crypto::OtStateError);
}

// --- malformed-input robustness: seeded mutation fuzzing of the decoders ---
//
// Every decoder that touches attacker-controlled bytes must either parse or
// throw WireError/invalid_argument — never crash, never exhibit UB. ~1k
// seeded mutations per decoder: truncations, bit flips, random buffers, and
// junk extensions.

Bytes mutate_wire(const Bytes& base, Rng& rng) {
  Bytes out = base;
  switch (rng.uniform_u64(4)) {
    case 0:  // truncate
      out.resize(static_cast<std::size_t>(rng.uniform_u64(base.size() + 1)));
      break;
    case 1: {  // flip 1..8 bits
      if (out.empty()) break;
      const std::size_t flips = 1 + rng.uniform_u64(8);
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t bit = rng.uniform_u64(out.size() * 8);
        out[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      break;
    }
    case 2:  // fully random buffer
      out.resize(static_cast<std::size_t>(rng.uniform_u64(300)));
      rng.fill_bytes(out);
      break;
    default:  // append junk
      for (std::size_t i = 0, n = 1 + rng.uniform_u64(32); i < n; ++i)
        out.push_back(static_cast<std::uint8_t>(rng.uniform_u64(256)));
      break;
  }
  return out;
}

/// Runs `decode` on ~1k mutations of `base`; only clean outcomes allowed.
template <typename F>
void fuzz_decoder(const Bytes& base, std::uint64_t seed, F&& decode) {
  Rng rng(seed);
  for (int i = 0; i < 1000; ++i) {
    const Bytes mutated = mutate_wire(base, rng);
    try {
      decode(mutated);  // parsing garbage successfully is fine; UB is not
    } catch (const WireError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(MalformedInputFuzz, ChallengeParseNeverCrashes) {
  AgreementParams params;
  params.seed_bits = 48;
  params.key_bits = 256;
  params.eta = 0.10;
  crypto::Drbg rng(91);
  const Challenge c = make_challenge(params, rng.random_bits(params.prelim_key_bits()), rng);
  fuzz_decoder(c.serialize(), 1001,
               [&](const Bytes& wire) { (void)Challenge::parse(params, wire); });
}

TEST(MalformedInputFuzz, PadReceiverNeverCrashes) {
  AgreementParams params;
  params.seed_bits = 16;
  params.key_bits = 128;
  crypto::Drbg rng(92);
  const PadSender sender(params, rng);
  const BitVec seed = rng.random_bits(16);
  fuzz_decoder(sender.message_a(), 1002, [&](const Bytes& wire) {
    crypto::Drbg fresh(7);
    (void)PadReceiver(params, seed, wire, fresh);
  });
}

TEST(MalformedInputFuzz, ReceivePadsNeverCrashes) {
  AgreementParams params;
  params.seed_bits = 16;
  params.key_bits = 128;
  crypto::Drbg rng(93);
  const PadSender sender(params, rng);
  const BitVec seed = rng.random_bits(16);
  const PadReceiver receiver(params, seed, sender.message_a(), rng);
  const Bytes msg_e = sender.make_cipher_message(receiver.message_b(), rng);
  fuzz_decoder(msg_e, 1003, [&](const Bytes& wire) { (void)receiver.receive_pads(wire); });
}

TEST(MalformedInputFuzz, WireReaderNeverCrashes) {
  WireWriter w;
  w.u8(3);
  w.u32(123456);
  w.blob(Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  fuzz_decoder(w.take(), 1004, [&](const Bytes& wire) {
    WireReader r(wire);
    (void)r.u8();
    (void)r.u32();
    (void)r.blob();
    r.expect_done();
  });
}

TEST(ReconciliationTest, ChallengeRoundTrip) {
  AgreementParams params;
  params.seed_bits = 48;
  params.key_bits = 256;
  params.eta = 0.1;
  crypto::Drbg rng(55);
  const BitVec key = rng.random_bits(params.prelim_key_bits());
  const Challenge c = make_challenge(params, key, rng);
  const Bytes wire = c.serialize();
  const Challenge parsed = Challenge::parse(params, wire);
  EXPECT_EQ(parsed.helper, c.helper);
  EXPECT_EQ(parsed.nonce, c.nonce);

  const auto recovered = recover_key(params, parsed, key);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, key);

  const Bytes response = make_response(parsed, *recovered);
  EXPECT_TRUE(verify_response(c, key, response));
  // Wrong key -> bad response.
  const BitVec other = rng.random_bits(params.prelim_key_bits());
  EXPECT_FALSE(verify_response(c, other, response));
}

}  // namespace
}  // namespace wavekey::protocol
