#pragma once

// Transport + timing layer: runs the full key agreement between a mobile
// party and a server party over a simulated channel with latency, a session
// clock anchored at the gesture start, the paper's tau deadline on the
// critical messages (M_A,R, M_B,M and M_B,R must arrive within
// gesture_window + tau of the gesture start; SIV-D2, and DESIGN.md §5 for
// M_B,R), and an adversary interposition hook used by the attack suite
// (eavesdrop / tamper / delay).
//
// Timeline. Each party is one single-threaded clock from the gesture start
// (t = 0), and its measured compute is charged in three lanes:
//  * precompute — the seed-independent OT work (PadSender: exponents, M_A,
//    k1 factors, pads; PadReceiver: b_i and g^{b_i}) runs while the gesture
//    is recorded, and M_A leaves as soon as it ends — M_A depends on no
//    seed, so its flight overlaps the recording (DESIGN.md §5);
//  * tau path — starts at max(gesture_window_s, precompute done) + the
//    party's compute_s (an overrun of the window is charged, not hidden),
//    or at the peer's M_A arrival if that is later. Only
//    PadReceiver::respond (one multiply per instance) precedes M_B;
//  * after M_B — the pad keys H(M_a^b) are derived right after M_B is sent,
//    while the peer's M_B is in flight, before the wait for M_E.
// The wire bytes, the DRBG draw order and the send-call order are those of
// computing everything after the gesture; only M_A's send time moves, so
// key-ready waits for four flights (M_B, M_E, challenge, response).
//
// Two transports are available:
//  * run_key_agreement — the paper's single-shot exchange: each message is
//    sent exactly once; a lost or late message aborts the session.
//  * run_key_agreement_arq — the same protocol over a stop-and-wait ARQ
//    (protocol/arq.hpp) running on a FaultyChannel
//    (protocol/faulty_channel.hpp): sequence-numbered CRC-tagged frames,
//    per-message retransmission timers with bounded exponential backoff, all
//    charged against the session clock so the tau deadline still bites.
//    Retries that cannot finish inside gesture_window + tau fail fast with
//    FailureReason::kTimeout.
//
// Thread-safety: run_key_agreement / run_key_agreement_arq are reentrant —
// all state lives in the arguments, so concurrent calls with *distinct*
// Drbgs, channels, and interceptors are safe (core::PairingEngine relies on
// exactly this). The Drbgs and the FaultyChannel advance internal state and
// must not be shared across concurrent calls. Wall-clock crypto cost is
// measured inside each call and charged to that session's virtual clock, so
// under CPU contention concurrent sessions honestly slow each other down
// against the tau deadline (DESIGN.md §7.3).

#include <functional>
#include <optional>
#include <string>

#include "protocol/arq.hpp"
#include "protocol/key_agreement.hpp"

namespace wavekey::protocol {

class FaultyChannel;

/// A message in flight; adversaries may observe or mutate it.
struct InFlightMessage {
  std::string from;      ///< "mobile" or "server"
  std::string to;
  MessageType type;
  Bytes payload;
  double send_time = 0;  ///< session-clock seconds
};

/// Adversary hook. Return value is the extra delay (seconds) the message
/// suffers; mutate `msg.payload` to tamper. Return a negative value to drop
/// the message entirely (the session then fails by timeout/parse error).
/// Under the ARQ transport the hook sees every physical frame copy
/// (retransmissions and duplicates included), framed per protocol/arq.hpp.
using Interceptor = std::function<double(InFlightMessage& msg)>;

struct SessionConfig {
  AgreementParams params;
  double gesture_window_s = 2.0;
  double tau_s = 0.120;          ///< deadline slack (SVI-C3)
  double link_latency_s = 0.002; ///< WiFi/BLE one-way latency
  /// Extra computation latency charged to each side before its messages are
  /// ready (covers slower mobile hardware; measured values in bench_tau).
  double mobile_compute_s = 0.0;
  double server_compute_s = 0.0;
};

enum class FailureReason {
  kNone,
  kDeadlineExceeded,   ///< M_A,R, M_B,M or M_B,R arrived after window + tau
  kReconciliationFailed,  ///< server could not recover K_M (seed mismatch)
  kBadResponse,        ///< HMAC verification failed at the mobile
  kMalformedMessage,   ///< wire-format error (tampering)
  kMessageDropped,     ///< a message never arrived (loss / adversary drop)
  kTimeout,            ///< ARQ retries could not finish inside the tau budget
};

/// Human-readable name of a failure reason (telemetry / bench output).
const char* failure_reason_name(FailureReason reason);

struct SessionResult {
  bool success = false;
  FailureReason failure = FailureReason::kNone;
  BitVec mobile_key;
  BitVec server_key;
  double elapsed_s = 0.0;  ///< session clock at exit (success or failure)
  /// Latest arrival among the deadline-bound messages (M_A,R and M_B,R at
  /// the mobile, M_B,M at the server); <= gesture_window + tau on every
  /// success. On an honest link M_A,R arrives inside the window, so an M_B
  /// sets it.
  double critical_arrival_s = 0.0;
  ArqStats arq;            ///< all-zero under the single-shot transport
};

/// Runs the complete protocol given the two key-seeds (produced by the
/// data-acquisition + key-seed-generation phases). The session clock starts
/// at the *gesture start*; the seeds become available at
/// gesture_window_s (the devices finish recording) plus each side's compute
/// latency, matching the paper's timeline. The seed-independent OT
/// precompute is charged from the gesture start (see the timeline above).
SessionResult run_key_agreement(const SessionConfig& config, const BitVec& mobile_seed,
                                const BitVec& server_seed, crypto::Drbg& mobile_rng,
                                crypto::Drbg& server_rng,
                                const Interceptor& interceptor = {});

/// Same protocol over the ARQ transport on a faulty link. `channel` is the
/// session's link model (must outlive the call); `interceptor` optionally
/// stacks an adversary on top of the channel faults.
SessionResult run_key_agreement_arq(const SessionConfig& config, const ArqConfig& arq,
                                    FaultyChannel& channel, const BitVec& mobile_seed,
                                    const BitVec& server_seed, crypto::Drbg& mobile_rng,
                                    crypto::Drbg& server_rng,
                                    const Interceptor& interceptor = {});

}  // namespace wavekey::protocol
