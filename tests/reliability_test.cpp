// Reliability tests: the FaultyChannel fault-injection model, the ARQ
// transport (framing, retransmission, tau-budget accounting), and the
// multi-attempt establish_key_robust orchestrator with its AttemptTrace
// telemetry. Everything is seeded and deterministic.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/encoders.hpp"
#include "core/model_store.hpp"
#include "core/system.hpp"
#include "crypto/drbg.hpp"
#include "numeric/rng.hpp"
#include "protocol/arq.hpp"
#include "protocol/faulty_channel.hpp"
#include "protocol/session.hpp"

namespace wavekey {
namespace {

using protocol::ArqConfig;
using protocol::Bytes;
using protocol::FailureReason;
using protocol::FaultyChannel;
using protocol::FaultyChannelConfig;
using protocol::FrameKind;
using protocol::InFlightMessage;
using protocol::Interceptor;
using protocol::JitterDistribution;
using protocol::LinkFaultConfig;
using protocol::MessageType;
using protocol::SessionConfig;
using protocol::SessionResult;

SessionConfig default_session_config() {
  SessionConfig c;
  c.params.seed_bits = 48;
  c.params.key_bits = 256;
  c.params.eta = 0.10;
  return c;
}

InFlightMessage test_message(double send_time = 2.0) {
  return InFlightMessage{"mobile", "server", MessageType::kMsgA, Bytes{1, 2, 3, 4, 5}, send_time};
}

// --- FaultyChannel -------------------------------------------------------

TEST(FaultyChannelTest, DeterministicBySeed) {
  FaultyChannelConfig config = FaultyChannelConfig::congested(/*seed=*/7);
  FaultyChannel a(config), b(config);
  for (int i = 0; i < 200; ++i) {
    const auto da = a.transmit(test_message(), 0.002);
    const auto db = b.transmit(test_message(), 0.002);
    ASSERT_EQ(da.size(), db.size()) << i;
    for (std::size_t k = 0; k < da.size(); ++k) {
      EXPECT_DOUBLE_EQ(da[k].arrival_s, db[k].arrival_s);
      EXPECT_EQ(da[k].payload, db[k].payload);
    }
  }
  // A different seed must give a different fault schedule.
  config.seed = 8;
  FaultyChannel c(config);
  int diffs = 0;
  FaultyChannel a2(FaultyChannelConfig::congested(7));
  for (int i = 0; i < 200; ++i)
    if (a2.transmit(test_message(), 0.002).size() != c.transmit(test_message(), 0.002).size())
      ++diffs;
  EXPECT_GT(diffs, 0);
}

TEST(FaultyChannelTest, LossRateApproximatelyRespected) {
  LinkFaultConfig f;
  f.loss = 0.3;
  FaultyChannel channel(FaultyChannelConfig::symmetric(f, 11));
  int delivered = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) delivered += static_cast<int>(channel.transmit(test_message(), 0.002).size());
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.7, 0.03);
}

TEST(FaultyChannelTest, DuplicationAndReorderHold) {
  LinkFaultConfig f;
  f.duplicate = 1.0;
  FaultyChannel dup(FaultyChannelConfig::symmetric(f, 3));
  EXPECT_EQ(dup.transmit(test_message(), 0.002).size(), 2u);

  LinkFaultConfig r;
  r.reorder = 1.0;
  r.reorder_hold_s = 0.050;
  FaultyChannel held(FaultyChannelConfig::symmetric(r, 3));
  const auto deliveries = held.transmit(test_message(2.0), 0.002);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_GE(deliveries[0].arrival_s, 2.0 + 0.002 + 0.050);
}

TEST(FaultyChannelTest, ComposesWithAdversaryInterceptor) {
  FaultyChannel clean(FaultyChannelConfig{});
  // Adversary sees the copy after channel faults and may drop it...
  const Interceptor dropper = [](InFlightMessage&) -> double { return -1.0; };
  EXPECT_TRUE(clean.transmit(test_message(), 0.002, dropper).empty());
  // ...delay it...
  const Interceptor delayer = [](InFlightMessage&) -> double { return 0.5; };
  const auto delayed = clean.transmit(test_message(2.0), 0.002, delayer);
  ASSERT_EQ(delayed.size(), 1u);
  EXPECT_DOUBLE_EQ(delayed[0].arrival_s, 2.502);
  // ...or tamper with it.
  const Interceptor tamperer = [](InFlightMessage& msg) -> double {
    msg.payload[0] ^= 0xFF;
    return 0.0;
  };
  const auto tampered = clean.transmit(test_message(), 0.002, tamperer);
  ASSERT_EQ(tampered.size(), 1u);
  EXPECT_EQ(tampered[0].payload[0], 1 ^ 0xFF);
}

// --- ARQ framing ---------------------------------------------------------

TEST(ArqFrameTest, RoundTrip) {
  const Bytes payload{9, 8, 7, 6};
  const Bytes wire = protocol::encode_data_frame(41, MessageType::kMsgB, payload);
  const auto frame = protocol::decode_frame(wire);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->kind, FrameKind::kData);
  EXPECT_EQ(frame->seq, 41u);
  EXPECT_EQ(frame->type, MessageType::kMsgB);
  EXPECT_EQ(frame->payload, payload);

  const auto ack = protocol::decode_frame(protocol::encode_ack_frame(41));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->kind, FrameKind::kAck);
  EXPECT_EQ(ack->seq, 41u);
}

TEST(ArqFrameTest, CrcCatchesEverySingleBitFlip) {
  const Bytes wire = protocol::encode_data_frame(5, MessageType::kMsgE, Bytes{1, 2, 3});
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    Bytes flipped = wire;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(protocol::decode_frame(flipped).has_value()) << "bit " << bit;
  }
  Bytes truncated = wire;
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(protocol::decode_frame(truncated).has_value());
}

// --- ARQ sessions --------------------------------------------------------

TEST(ArqSessionTest, CleanChannelBehavesLikeSingleShot) {
  const SessionConfig config = default_session_config();
  crypto::Drbg seed_rng(1);
  const BitVec seed = seed_rng.random_bits(48);

  FaultyChannel channel(FaultyChannelConfig{});
  crypto::Drbg m_rng(10), s_rng(20);
  const SessionResult r = protocol::run_key_agreement_arq(config, ArqConfig{}, channel, seed,
                                                          seed, m_rng, s_rng);
  ASSERT_TRUE(r.success) << failure_reason_name(r.failure);
  EXPECT_EQ(r.mobile_key, r.server_key);
  EXPECT_EQ(r.arq.data_frames_sent, 8u);  // 8 protocol messages, no retries
  EXPECT_EQ(r.arq.retransmissions, 0u);
  EXPECT_EQ(r.arq.acks_sent, 8u);
  EXPECT_EQ(r.arq.messages_lost, 0u);
  EXPECT_LE(r.critical_arrival_s, config.gesture_window_s + config.tau_s);
}

// Acceptance: at 5% packet loss + 10 ms jitter the ARQ session succeeds
// where the single-shot protocol fails, on deterministic seeds.
TEST(ArqSessionTest, ArqWinsBackSessionsSingleShotLosesAtFivePercentLoss) {
  const SessionConfig config = default_session_config();
  LinkFaultConfig f;
  f.loss = 0.05;
  f.jitter = JitterDistribution::kExponential;
  f.jitter_s = 0.010;

  std::vector<std::uint64_t> failing_seeds;
  for (std::uint64_t cs = 1; cs <= 40; ++cs) {
    FaultyChannel channel(FaultyChannelConfig::symmetric(f, cs));
    crypto::Drbg m_rng(cs * 3 + 1), s_rng(cs * 3 + 2), seed_rng(cs * 3 + 3);
    const BitVec seed = seed_rng.random_bits(48);
    const SessionResult single = protocol::run_key_agreement(config, seed, seed, m_rng, s_rng,
                                                             channel.as_interceptor());
    if (!single.success) failing_seeds.push_back(cs);
  }
  // At 5% loss over 8 messages roughly a third of single-shot sessions die.
  ASSERT_GE(failing_seeds.size(), 3u);

  for (std::uint64_t cs : failing_seeds) {
    FaultyChannel channel(FaultyChannelConfig::symmetric(f, cs));
    crypto::Drbg m_rng(cs * 3 + 1), s_rng(cs * 3 + 2), seed_rng(cs * 3 + 3);
    const BitVec seed = seed_rng.random_bits(48);
    const SessionResult r = protocol::run_key_agreement_arq(config, ArqConfig{}, channel, seed,
                                                            seed, m_rng, s_rng);
    ASSERT_TRUE(r.success) << "channel seed " << cs << ": "
                           << failure_reason_name(r.failure);
    EXPECT_EQ(r.mobile_key, r.server_key);
    EXPECT_GT(r.arq.retransmissions + r.arq.corrupt_frames_dropped + r.arq.duplicate_frames, 0u)
        << "single-shot failed yet ARQ saw no channel fault, channel seed " << cs;
    EXPECT_LE(r.critical_arrival_s, config.gesture_window_s + config.tau_s);
  }
}

/// Drops data frames matching (from, type); ACKs pass. Negative `max_drops`
/// drops forever.
Interceptor make_data_frame_dropper(const char* from, MessageType type, int max_drops,
                                    int* dropped = nullptr) {
  auto count = std::make_shared<int>(0);
  std::string from_s = from;
  return [=](InFlightMessage& msg) -> double {
    if (msg.from != from_s || msg.type != type) return 0.0;
    const auto frame = protocol::decode_frame(msg.payload);
    if (!frame || frame->kind != FrameKind::kData) return 0.0;
    if (max_drops >= 0 && *count >= max_drops) return 0.0;
    ++*count;
    if (dropped) *dropped = *count;
    return -1.0;
  };
}

TEST(ArqSessionTest, RetransmissionCountersMatchInjectedDrops) {
  const SessionConfig config = default_session_config();
  crypto::Drbg seed_rng(2);
  const BitVec seed = seed_rng.random_bits(48);

  FaultyChannel channel(FaultyChannelConfig{});  // clean link; adversary injects the fault
  crypto::Drbg m_rng(30), s_rng(40);
  int dropped = 0;
  const SessionResult r = protocol::run_key_agreement_arq(
      config, ArqConfig{}, channel, seed, seed, m_rng, s_rng,
      make_data_frame_dropper("mobile", MessageType::kChallenge, 1, &dropped));
  ASSERT_TRUE(r.success) << failure_reason_name(r.failure);
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(r.arq.retransmissions, 1u);  // exactly the one dropped challenge frame
  EXPECT_EQ(r.arq.messages_lost, 0u);
}

TEST(ArqSessionTest, TimeoutFailsFastWithinTauBudget) {
  const SessionConfig config = default_session_config();
  const ArqConfig arq;
  const double deadline = config.gesture_window_s + config.tau_s;
  crypto::Drbg seed_rng(3);
  const BitVec seed = seed_rng.random_bits(48);

  // M_B,M (mobile -> server, deadline-bound, sent after the window) never
  // gets through; the sender must stop retrying as soon as a retransmission
  // could no longer arrive inside gesture_window + tau.
  FaultyChannel channel(FaultyChannelConfig{});
  crypto::Drbg m_rng(50), s_rng(60);
  const SessionResult r = protocol::run_key_agreement_arq(
      config, arq, channel, seed, seed, m_rng, s_rng,
      make_data_frame_dropper("mobile", MessageType::kMsgB, -1));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureReason::kTimeout);
  // Fail-fast: well before the retry budget is spent...
  EXPECT_LT(r.arq.retransmissions, arq.max_retransmits);
  // ...and the session clock stops within one timer period of the deadline.
  EXPECT_LE(r.elapsed_s, deadline + arq.max_rto_s);
}

TEST(ArqSessionTest, ServerResponseFailsFastWithinTauBudget) {
  const SessionConfig config = default_session_config();
  const ArqConfig arq;
  const double deadline = config.gesture_window_s + config.tau_s;
  crypto::Drbg seed_rng(6);
  const BitVec seed = seed_rng.random_bits(48);

  // M_B,R is seed-dependent, so tau binds its retransmissions as well.
  FaultyChannel channel(FaultyChannelConfig{});
  crypto::Drbg m_rng(110), s_rng(120);
  const SessionResult r = protocol::run_key_agreement_arq(
      config, arq, channel, seed, seed, m_rng, s_rng,
      make_data_frame_dropper("server", MessageType::kMsgB, -1));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureReason::kTimeout);
  EXPECT_LT(r.arq.retransmissions, arq.max_retransmits);
  EXPECT_LE(r.elapsed_s, deadline + arq.max_rto_s);
}

TEST(ArqSessionTest, FirstMessageRetriesInsideTheGestureWindow) {
  const SessionConfig config = default_session_config();
  crypto::Drbg seed_rng(7);
  const BitVec seed = seed_rng.random_bits(48);

  // M_A leaves when the precompute ends, so its retransmissions have the
  // whole window: four lost copies of M_A,R (15 + 30 + 60 + 120 ms of
  // timers) would overrun the tau budget after the window, not inside it.
  FaultyChannel channel(FaultyChannelConfig{});
  crypto::Drbg m_rng(130), s_rng(140);
  int dropped = 0;
  const SessionResult r = protocol::run_key_agreement_arq(
      config, ArqConfig{}, channel, seed, seed, m_rng, s_rng,
      make_data_frame_dropper("server", MessageType::kMsgA, 4, &dropped));
  ASSERT_TRUE(r.success) << failure_reason_name(r.failure);
  EXPECT_EQ(dropped, 4);
  EXPECT_EQ(r.arq.retransmissions, 4u);
  EXPECT_EQ(r.mobile_key, r.server_key);
  EXPECT_LT(r.critical_arrival_s - config.gesture_window_s, config.tau_s);
}

TEST(ArqSessionTest, ExhaustedRetriesReportMessageDropped) {
  const SessionConfig config = default_session_config();
  const ArqConfig arq;
  crypto::Drbg seed_rng(4);
  const BitVec seed = seed_rng.random_bits(48);

  // M_E,M (not deadline-bound) never gets through: the full retry budget is
  // spent, then the message is abandoned.
  FaultyChannel channel(FaultyChannelConfig{});
  crypto::Drbg m_rng(70), s_rng(80);
  const SessionResult r = protocol::run_key_agreement_arq(
      config, arq, channel, seed, seed, m_rng, s_rng,
      make_data_frame_dropper("mobile", MessageType::kMsgE, -1));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureReason::kMessageDropped);
  EXPECT_EQ(r.arq.messages_lost, 1u);
  EXPECT_GE(r.arq.retransmissions, static_cast<std::uint32_t>(arq.max_retransmits));
}

TEST(ArqSessionTest, CorruptedFramesAreRejectedByCrc) {
  const SessionConfig config = default_session_config();
  crypto::Drbg seed_rng(5);
  const BitVec seed = seed_rng.random_bits(48);

  LinkFaultConfig f;
  f.corrupt = 1.0;  // every copy corrupted: nothing valid ever arrives
  FaultyChannel channel(FaultyChannelConfig::symmetric(f, 21));
  crypto::Drbg m_rng(90), s_rng(100);
  const SessionResult r =
      protocol::run_key_agreement_arq(config, ArqConfig{}, channel, seed, seed, m_rng, s_rng);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.failure, FailureReason::kMessageDropped);
  EXPECT_GT(r.arq.corrupt_frames_dropped, 0u);
}

TEST(ArqSessionTest, SuccessesAlwaysRespectCriticalDeadline) {
  const SessionConfig config = default_session_config();
  const double deadline = config.gesture_window_s + config.tau_s;
  int successes = 0;
  for (std::uint64_t cs = 1; cs <= 20; ++cs) {
    FaultyChannel channel(FaultyChannelConfig::congested(cs));
    crypto::Drbg m_rng(cs * 5 + 1), s_rng(cs * 5 + 2), seed_rng(cs * 5 + 3);
    const BitVec seed = seed_rng.random_bits(48);
    const SessionResult r =
        protocol::run_key_agreement_arq(config, ArqConfig{}, channel, seed, seed, m_rng, s_rng);
    if (!r.success) continue;
    ++successes;
    EXPECT_LE(r.critical_arrival_s, deadline) << "channel seed " << cs;
    EXPECT_EQ(r.mobile_key, r.server_key);
  }
  EXPECT_GT(successes, 0);
}

// --- establish_key_robust orchestrator -----------------------------------

core::DatasetConfig tiny_dataset_config() {
  core::DatasetConfig dc;
  dc.volunteers = 3;
  dc.devices = 2;
  dc.gestures_per_pair = 2;
  dc.windows_per_gesture = 6;
  dc.gesture_active_s = 8.0;
  return dc;
}

/// Process-wide tiny trained system (same pattern as core_test).
core::WaveKeySystem& tiny_system() {
  static core::WaveKeySystem* system = [] {
    const core::WaveKeyDataset dataset = core::WaveKeyDataset::generate(tiny_dataset_config());
    Rng rng(7);
    core::EncoderPair encoders(core::WaveKeyConfig{}.latent_dim, rng);
    core::TrainConfig tc;
    tc.epochs = 8;
    tc.batch_size = 16;
    encoders.train(dataset, tc);
    auto* sys = new core::WaveKeySystem(std::move(encoders), core::WaveKeyConfig{});
    sys->config().eta_security_cap = 0.6;  // tiny model: track its real noise
    sys->calibrate(dataset);
    return sys;
  }();
  return *system;
}

sim::ScenarioConfig robust_scenario() {
  sim::ScenarioConfig sc;
  sc.distance_m = 2.0;
  sc.gesture.active_s = 4.0;
  return sc;
}

core::RobustSessionConfig clean_robust_config() {
  core::RobustSessionConfig rc;
  rc.channel = FaultyChannelConfig{};  // no channel faults unless a test injects them
  return rc;
}

TEST(RobustOrchestratorTest, RecoversFromTransientDropSchedule) {
  core::WaveKeySystem& sys = tiny_system();
  const sim::ScenarioConfig sc = robust_scenario();

  core::RobustSessionConfig rc = clean_robust_config();
  rc.arq.initial_rto_s = 0.005;
  rc.arq.max_retransmits = 2;

  // Self-calibrate the fault schedule: with an adversary dropping every
  // frame, one failed attempt consumes a fixed number of interceptor calls.
  const auto calls_per_failed_attempt = [&](std::uint64_t seed) -> int {
    int calls = 0;
    const Interceptor count_and_drop = [&calls](InFlightMessage&) -> double {
      ++calls;
      return -1.0;
    };
    core::RobustSessionConfig one = rc;
    one.max_attempts = 1;
    const core::RobustOutcome out = sys.establish_key_robust(sc, seed, one, count_and_drop);
    EXPECT_FALSE(out.success);
    return calls;
  };

  bool recovered = false;
  for (std::uint64_t seed = 1; seed <= 30 && !recovered; ++seed) {
    const int per_attempt = calls_per_failed_attempt(seed);
    if (per_attempt == 0) continue;  // pipeline rejected the first recording

    // Injected schedule: the link is dead for the first two attempts, then
    // recovers. The orchestrator must win on attempt 3.
    int budget = 2 * per_attempt;
    const Interceptor transient = [&budget](InFlightMessage&) -> double {
      if (budget <= 0) return 0.0;
      --budget;
      return -1.0;
    };
    core::RobustSessionConfig three = rc;
    three.max_attempts = 3;
    const core::RobustOutcome out = sys.establish_key_robust(sc, seed, three, transient);
    if (!out.success) continue;  // e.g. attempt 3's gesture rejected / mismatch too big

    recovered = true;
    ASSERT_EQ(out.attempts_used, 3);
    ASSERT_EQ(out.trace.size(), 3u);
    // The trace must match the injected schedule.
    EXPECT_EQ(out.trace[0].failure, FailureReason::kMessageDropped);
    EXPECT_FALSE(out.trace[0].success);
    EXPECT_GT(out.trace[0].arq.messages_lost, 0u);
    EXPECT_EQ(out.trace[1].failure, FailureReason::kMessageDropped);
    EXPECT_FALSE(out.trace[1].success);
    EXPECT_TRUE(out.trace[2].success);
    EXPECT_EQ(out.trace[2].failure, FailureReason::kNone);
    EXPECT_EQ(out.trace[2].arq.messages_lost, 0u);
    EXPECT_GT(out.total_elapsed_s, 3 * sys.config().gesture_window_s);  // three re-waves
  }
  EXPECT_TRUE(recovered) << "no seed in range produced the recover-on-attempt-3 schedule";
}

TEST(RobustOrchestratorTest, PermanentFaultFailsEveryAttemptAndTraceRecordsIt) {
  core::WaveKeySystem& sys = tiny_system();
  const sim::ScenarioConfig sc = robust_scenario();
  core::RobustSessionConfig rc = clean_robust_config();
  rc.max_attempts = 2;
  rc.arq.max_retransmits = 2;

  const core::RobustOutcome out = sys.establish_key_robust(
      sc, 42, rc, make_data_frame_dropper("mobile", MessageType::kChallenge, -1));
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.attempts_used, 2);
  ASSERT_EQ(out.trace.size(), 2u);
  for (const core::AttemptTrace& t : out.trace) {
    EXPECT_FALSE(t.success);
    if (!t.pipelines_ok) continue;
    // Attempts that reached the protocol all died on the dropped challenge.
    EXPECT_EQ(t.failure, FailureReason::kMessageDropped);
    EXPECT_EQ(t.arq.messages_lost, 1u);
    EXPECT_GE(t.arq.retransmissions, 2u);
  }
}

TEST(RobustOrchestratorTest, EtaRelaxationIsMonotonicAndCapped) {
  core::WaveKeySystem& sys = tiny_system();
  const sim::ScenarioConfig sc = robust_scenario();

  // Start from an impossibly strict eta and let the orchestrator relax it.
  const double calibrated_eta = sys.config().eta;
  sys.config().eta = 0.0;
  core::RobustSessionConfig rc = clean_robust_config();
  rc.max_attempts = 4;
  rc.eta_relax_per_attempt = 0.2;

  bool saw_relaxed_recovery = false;
  for (std::uint64_t seed = 1; seed <= 20 && !saw_relaxed_recovery; ++seed) {
    const core::RobustOutcome out = sys.establish_key_robust(sc, seed, rc);
    double prev = -1.0;
    for (const core::AttemptTrace& t : out.trace) {
      EXPECT_GE(t.eta, prev);           // monotone relaxation
      EXPECT_LE(t.eta, sys.config().eta_security_cap + 1e-12);  // never past the cap
      prev = t.eta;
    }
    if (out.success && out.attempts_used > 1 &&
        out.trace.front().failure == FailureReason::kReconciliationFailed)
      saw_relaxed_recovery = true;
  }
  sys.config().eta = calibrated_eta;
  EXPECT_TRUE(saw_relaxed_recovery)
      << "no seed showed a reconciliation failure recovered by eta relaxation";
}

}  // namespace
}  // namespace wavekey
