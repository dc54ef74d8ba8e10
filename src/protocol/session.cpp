#include "protocol/session.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "protocol/faulty_channel.hpp"

namespace wavekey::protocol {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Runs f(), charges its real wall-clock cost to `party_clock`, returns its
/// result. Compute time is *measured*, not assumed, so the tau-deadline and
/// Table III numbers reflect this machine's actual crypto throughput.
template <typename F>
auto timed(double& party_clock, F&& f) {
  struct Charge {
    double& clock;
    std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
    ~Charge() {
      clock += std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    }
  } charge{party_clock};
  return f();
}

struct TransmitOutcome {
  std::optional<double> arrival;  ///< arrival time at the receiver
  FailureReason failure = FailureReason::kNone;
};

/// One send of a protocol message. `sender_clock` advances by any time the
/// sender spends blocked on the send (retransmission waits under ARQ);
/// `payload` is replaced with the bytes the receiver actually got.
/// `deadline` < 0 means the message is not deadline-bound.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual TransmitOutcome send(const char* from, const char* to, MessageType type, Bytes& payload,
                               double& sender_clock, double deadline) = 0;
  virtual ArqStats stats() const { return {}; }
};

/// The paper's single-shot channel: fixed latency, one delivery, adversary
/// interposition. A drop is final.
class DirectTransport : public Transport {
 public:
  DirectTransport(const SessionConfig& config, const Interceptor& interceptor)
      : config_(config), interceptor_(interceptor) {}

  TransmitOutcome send(const char* from, const char* to, MessageType type, Bytes& payload,
                       double& sender_clock, double /*deadline*/) override {
    double extra = 0.0;
    if (interceptor_) {
      InFlightMessage msg{from, to, type, std::move(payload), sender_clock};
      extra = interceptor_(msg);
      payload = std::move(msg.payload);
      if (extra < 0.0) return {std::nullopt, FailureReason::kMessageDropped};
    }
    return {sender_clock + config_.link_latency_s + extra, FailureReason::kNone};
  }

 private:
  const SessionConfig& config_;
  const Interceptor& interceptor_;
};

/// Stop-and-wait ARQ over a FaultyChannel: each message becomes a
/// sequence-numbered CRC-tagged frame; the sender retransmits on a timer
/// with bounded exponential backoff until an ACK arrives, the retry budget
/// is spent, or — for deadline-bound messages — the next retransmission
/// could no longer arrive inside the tau budget (fail fast, kTimeout).
class ArqTransport : public Transport {
 public:
  ArqTransport(const SessionConfig& config, const ArqConfig& arq, FaultyChannel& channel,
               const Interceptor& interceptor)
      : config_(config), arq_(arq), channel_(channel), interceptor_(interceptor) {}

  TransmitOutcome send(const char* from, const char* to, MessageType type, Bytes& payload,
                       double& sender_clock, double deadline) override {
    const std::uint32_t seq = next_seq_++;
    const Bytes frame = encode_data_frame(seq, type, payload);
    const std::size_t max_sends = 1 + arq_.max_retransmits;

    double rto = arq_.initial_rto_s;
    double send_t = sender_clock;
    double first_delivery = kInf;
    double first_ack = kInf;
    double sender_done = sender_clock;
    bool deadline_cut = false;
    Bytes delivered_payload;
    std::size_t sends = 0;

    while (true) {
      ++sends;
      ++stats_.data_frames_sent;
      if (sends > 1) ++stats_.retransmissions;

      const InFlightMessage msg{from, to, type, frame, send_t};
      for (const Delivery& d : channel_.transmit(msg, config_.link_latency_s, interceptor_)) {
        const std::optional<ArqFrame> decoded = decode_frame(d.payload);
        if (!decoded || decoded->kind != FrameKind::kData || decoded->seq != seq ||
            decoded->type != type) {
          ++stats_.corrupt_frames_dropped;
          continue;
        }
        if (first_delivery == kInf) {
          first_delivery = d.arrival_s;
          delivered_payload = decoded->payload;
        } else {
          ++stats_.duplicate_frames;
        }
        // The receiver acknowledges every valid copy; ACKs ride the same
        // faulty link in the reverse direction.
        ++stats_.acks_sent;
        const InFlightMessage ack{to, from, type, encode_ack_frame(seq), d.arrival_s};
        for (const Delivery& a : channel_.transmit(ack, config_.link_latency_s, interceptor_)) {
          const std::optional<ArqFrame> ack_decoded = decode_frame(a.payload);
          if (!ack_decoded || ack_decoded->kind != FrameKind::kAck || ack_decoded->seq != seq) {
            ++stats_.corrupt_frames_dropped;
            continue;
          }
          first_ack = std::min(first_ack, a.arrival_s);
        }
      }

      const double timer_fires = send_t + rto;
      if (first_ack <= timer_fires) {
        sender_done = first_ack;  // ACK stopped the timer
        break;
      }
      sender_done = timer_fires;  // sender waited out the full timer
      if (sends >= max_sends) break;
      if (deadline >= 0.0 && timer_fires + config_.link_latency_s > deadline) {
        deadline_cut = true;  // a retransmission could not arrive in budget
        break;
      }
      send_t = timer_fires;
      rto = std::min(rto * arq_.backoff, arq_.max_rto_s);
    }

    sender_clock = std::max(sender_clock, sender_done);
    if (first_delivery != kInf) {
      payload = std::move(delivered_payload);
      return {first_delivery, FailureReason::kNone};
    }
    ++stats_.messages_lost;
    return {std::nullopt,
            deadline_cut ? FailureReason::kTimeout : FailureReason::kMessageDropped};
  }

  ArqStats stats() const override { return stats_; }

 private:
  const SessionConfig& config_;
  const ArqConfig& arq_;
  FaultyChannel& channel_;
  const Interceptor& interceptor_;
  std::uint32_t next_seq_ = 0;
  ArqStats stats_;
};

/// The six protocol phases, written once against the Transport interface.
SessionResult run_session(const SessionConfig& config, const BitVec& mobile_seed,
                          const BitVec& server_seed, crypto::Drbg& mobile_rng,
                          crypto::Drbg& server_rng, Transport& transport) {
  SessionResult result;
  const AgreementParams& params = config.params;
  const double deadline = config.gesture_window_s + config.tau_s;

  // Party clocks start at the gesture start (session.hpp, "Timeline"). The
  // seed-independent OT precompute runs while the gesture is recorded and
  // M_A leaves when it ends; the tau path starts when recording *and*
  // precompute are done, plus the party's processing latency (pipeline +
  // encoder inference), so an overrun of the window is charged, not hidden.
  double t_mobile = 0.0;
  double t_server = 0.0;

  const auto fail = [&](FailureReason reason) {
    result.failure = reason;
    // M_A leaves inside the window, so a session can fail before its
    // gesture ends; the parties still record until then.
    result.elapsed_s = std::max({config.gesture_window_s, t_mobile, t_server});
    result.arq = transport.stats();
    return result;
  };

  try {
    const PadSender mobile_sender =
        timed(t_mobile, [&] { return PadSender(params, mobile_rng); });
    Bytes msg_a_m = timed(t_mobile, [&] { return mobile_sender.message_a(); });
    PadReceiver mobile_receiver = timed(t_mobile, [&] { return PadReceiver(params, mobile_rng); });

    const PadSender server_sender =
        timed(t_server, [&] { return PadSender(params, server_rng); });
    Bytes msg_a_r = timed(t_server, [&] { return server_sender.message_a(); });
    PadReceiver server_receiver = timed(t_server, [&] { return PadReceiver(params, server_rng); });

    const double mobile_ready =
        std::max(config.gesture_window_s, t_mobile) + config.mobile_compute_s;
    const double server_ready =
        std::max(config.gesture_window_s, t_server) + config.server_compute_s;

    // --- Phase 1: both sides emit their batched OT first messages as soon
    // as their precompute ends: M_A depends on no seed (DESIGN.md §5). ---
    const TransmitOutcome a_m =
        transport.send("mobile", "server", MessageType::kMsgA, msg_a_m, t_mobile, -1.0);
    const TransmitOutcome a_r =
        transport.send("server", "mobile", MessageType::kMsgA, msg_a_r, t_server, deadline);
    if (!a_m.arrival) return fail(a_m.failure);
    if (!a_r.arrival) return fail(a_r.failure);

    // Deadline on M_A,R at the mobile (SIV-D2).
    result.critical_arrival_s = *a_r.arrival;
    if (*a_r.arrival > deadline) return fail(FailureReason::kDeadlineExceeded);
    t_mobile = std::max({t_mobile, mobile_ready, *a_r.arrival});
    t_server = std::max({t_server, server_ready, *a_m.arrival});

    // --- Phase 2: OT responses (choices = own key-seed bits). ---
    Bytes msg_b_m = timed(t_mobile, [&] {
      mobile_receiver.respond(mobile_seed, msg_a_r);
      return mobile_receiver.message_b();
    });
    Bytes msg_b_r = timed(t_server, [&] {
      server_receiver.respond(server_seed, msg_a_m);
      return server_receiver.message_b();
    });

    const TransmitOutcome b_m =
        transport.send("mobile", "server", MessageType::kMsgB, msg_b_m, t_mobile, deadline);
    const TransmitOutcome b_r =
        transport.send("server", "mobile", MessageType::kMsgB, msg_b_r, t_server, deadline);
    if (!b_m.arrival) return fail(b_m.failure);
    if (!b_r.arrival) return fail(b_r.failure);

    // Deadline on both seed-dependent messages: M_B,M at the server and
    // M_B,R at the mobile.
    result.critical_arrival_s =
        std::max({result.critical_arrival_s, *b_m.arrival, *b_r.arrival});
    if (result.critical_arrival_s > deadline) return fail(FailureReason::kDeadlineExceeded);

    // The pad keys H(M_a^b) need only M_A: each party derives them right
    // after sending its M_B, while the peer's M_B is in flight.
    timed(t_mobile, [&] { mobile_receiver.derive_keys(); });
    timed(t_server, [&] { server_receiver.derive_keys(); });
    t_mobile = std::max(t_mobile, *b_r.arrival);
    t_server = std::max(t_server, *b_m.arrival);

    // --- Phase 3: ciphertext pair messages. ---
    Bytes msg_e_m =
        timed(t_mobile, [&] { return mobile_sender.make_cipher_message(msg_b_r, mobile_rng); });
    Bytes msg_e_r =
        timed(t_server, [&] { return server_sender.make_cipher_message(msg_b_m, server_rng); });

    const TransmitOutcome e_m =
        transport.send("mobile", "server", MessageType::kMsgE, msg_e_m, t_mobile, -1.0);
    const TransmitOutcome e_r =
        transport.send("server", "mobile", MessageType::kMsgE, msg_e_r, t_server, -1.0);
    if (!e_m.arrival) return fail(e_m.failure);
    if (!e_r.arrival) return fail(e_r.failure);
    t_mobile = std::max(t_mobile, *e_r.arrival);
    t_server = std::max(t_server, *e_m.arrival);

    // --- Phase 4: preliminary keys. ---
    const std::vector<BitVec> mobile_received =
        timed(t_mobile, [&] { return mobile_receiver.receive_pads(msg_e_r); });
    const BitVec key_m = timed(t_mobile, [&] {
      return assemble_preliminary_key(params, mobile_seed, mobile_sender, mobile_received,
                                      /*own_first=*/true);
    });

    const std::vector<BitVec> server_received =
        timed(t_server, [&] { return server_receiver.receive_pads(msg_e_m); });
    const BitVec key_r = timed(t_server, [&] {
      return assemble_preliminary_key(params, server_seed, server_sender, server_received,
                                      /*own_first=*/false);
    });

    // --- Phase 5: reconciliation challenge. ---
    const Challenge challenge =
        timed(t_mobile, [&] { return make_challenge(params, key_m, mobile_rng); });
    Bytes challenge_wire = timed(t_mobile, [&] { return challenge.serialize(); });
    const TransmitOutcome ch = transport.send("mobile", "server", MessageType::kChallenge,
                                              challenge_wire, t_mobile, -1.0);
    if (!ch.arrival) return fail(ch.failure);
    t_server = std::max(t_server, *ch.arrival);

    const Challenge server_challenge =
        timed(t_server, [&] { return Challenge::parse(params, challenge_wire); });
    const auto recovered =
        timed(t_server, [&] { return recover_key(params, server_challenge, key_r); });
    if (!recovered) return fail(FailureReason::kReconciliationFailed);

    // --- Phase 6: HMAC confirmation. ---
    Bytes response = timed(t_server, [&] { return make_response(server_challenge, *recovered); });
    const TransmitOutcome resp =
        transport.send("server", "mobile", MessageType::kResponse, response, t_server, -1.0);
    if (!resp.arrival) return fail(resp.failure);
    t_mobile = std::max(t_mobile, *resp.arrival);

    const bool ok = timed(t_mobile, [&] {
      return verify_response(challenge, key_m, response) ? 1 : 0;
    });
    if (!ok) return fail(FailureReason::kBadResponse);

    result.success = true;
    result.mobile_key = finalize_key(params, key_m);
    result.server_key = finalize_key(params, *recovered);
    result.elapsed_s = std::max(t_mobile, t_server);
    result.arq = transport.stats();
    return result;
  } catch (const WireError&) {
    return fail(FailureReason::kMalformedMessage);
  } catch (const std::invalid_argument&) {
    return fail(FailureReason::kMalformedMessage);
  }
}

}  // namespace

const char* failure_reason_name(FailureReason reason) {
  switch (reason) {
    case FailureReason::kNone: return "none";
    case FailureReason::kDeadlineExceeded: return "deadline_exceeded";
    case FailureReason::kReconciliationFailed: return "reconciliation_failed";
    case FailureReason::kBadResponse: return "bad_response";
    case FailureReason::kMalformedMessage: return "malformed_message";
    case FailureReason::kMessageDropped: return "message_dropped";
    case FailureReason::kTimeout: return "timeout";
  }
  return "unknown";
}

SessionResult run_key_agreement(const SessionConfig& config, const BitVec& mobile_seed,
                                const BitVec& server_seed, crypto::Drbg& mobile_rng,
                                crypto::Drbg& server_rng, const Interceptor& interceptor) {
  DirectTransport transport(config, interceptor);
  return run_session(config, mobile_seed, server_seed, mobile_rng, server_rng, transport);
}

SessionResult run_key_agreement_arq(const SessionConfig& config, const ArqConfig& arq,
                                    FaultyChannel& channel, const BitVec& mobile_seed,
                                    const BitVec& server_seed, crypto::Drbg& mobile_rng,
                                    crypto::Drbg& server_rng, const Interceptor& interceptor) {
  ArqTransport transport(config, arq, channel, interceptor);
  return run_session(config, mobile_seed, server_seed, mobile_rng, server_rng, transport);
}

}  // namespace wavekey::protocol
