#pragma once

// Concurrent pairing service: serves N independent pairing sessions
// (quantize -> OT -> fuzzy commitment -> verify), each as one coroutine on a
// runtime::EventLoop, with per-session latency accounting against the
// paper's tau window.
//
// This models an RFID reader / access-control head-end serving several
// simultaneous gesture taps: each submitted request carries the two latent
// feature vectors already extracted by the encoders (feature extraction is
// per-device work; the shared SeedQuantizer::quantize is const and safe to
// call concurrently), and the engine runs the full key agreement for each.
//
// Timing model. Two clocks are kept per session:
//  * the *virtual session clock* of protocol::run_key_agreement, which
//    charges measured wall-clock crypto cost into the session timeline — so
//    CPU contention between concurrent sessions genuinely inflates each
//    session's critical-message arrival and can breach gesture_window + tau;
//  * *wall metrics* (queue_wait_s, service_s) for throughput accounting.
// `radio_wait_s` emulates radio I/O (BLE connection-interval round-trips):
// the session suspends into the loop's timer wheel for that long, so waits
// overlap on any number of worker threads, one included. The wait is wall
// time only; it is never charged to the virtual clock.
//
// Admission. `queue_capacity` is an admission window, not a queue: at most
// that many sessions are admitted and unfinished at once, and submit()
// blocks until one finishes (backpressure — a session is never dropped).
// Admitted sessions that are parked on the radio cost a coroutine frame,
// not a thread.
//
// Thread-safety: submit() may be called from any number of producer threads
// concurrently. finish() must be called exactly once, from one thread, after
// all producers are done; it closes the window, drains every admitted
// session, and returns the reports sorted by request id. The engine must
// outlive all submit() calls.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/seed_quantizer.hpp"
#include "numeric/bitvec.hpp"
#include "protocol/session.hpp"

namespace wavekey::core {

struct PairingEngineConfig {
  std::size_t threads = 1;          ///< event-loop worker threads
  std::size_t queue_capacity = 64;  ///< admission window (see header comment)
  /// Emulated radio I/O per session (seconds the session stays suspended on
  /// the loop's timer wheel). Zero disables the emulation.
  double radio_wait_s = 0.0;
  /// Per-session protocol timing (tau, gesture window, link latency). The
  /// engine overwrites `session.params.seed_bits` from the quantizer.
  protocol::SessionConfig session;
  /// Streaming handoff of established keys (pairing → server::KeyVault):
  /// invoked on a loop worker the moment a session succeeds, before the
  /// report is filed — so the backend can start serving access requests for
  /// the session without waiting for finish(). The callback runs
  /// concurrently from every worker and must be thread-safe; keep it cheap
  /// (a vault insert), as its wall time holds the worker. If it throws,
  /// only that session fails (its report carries the error).
  std::function<void(std::uint64_t id, const BitVec& key)> on_established;
};

/// One pairing job: pre-extracted latents for both sides plus the session's
/// entropy seed (deterministic replay: same seed -> same pads/nonces).
struct PairingRequest {
  std::uint64_t id = 0;
  std::vector<double> mobile_latent;
  std::vector<double> server_latent;
  std::uint64_t rng_seed = 0;
};

/// Per-session outcome + latency accounting.
struct PairingReport {
  std::uint64_t id = 0;
  bool success = false;
  protocol::FailureReason failure = protocol::FailureReason::kNone;
  std::string error;            ///< non-protocol failure (e.g. bad latent)
  BitVec key;                   ///< agreed session key (mobile side) on success
  double queue_wait_s = 0.0;    ///< wall: submit -> service start
  double service_s = 0.0;       ///< wall: service start -> done (incl. radio)
  double elapsed_s = 0.0;       ///< virtual session clock at exit
  /// Virtual arrival of the latest deadline-bound message minus the gesture
  /// window; must stay <= tau on every success.
  double critical_latency_s = 0.0;
  bool tau_violation = false;   ///< success with critical_latency_s > tau
};

class PairingEngine {
 public:
  /// The quantizer is shared by reference and must outlive the engine.
  PairingEngine(const SeedQuantizer& quantizer, const PairingEngineConfig& config);
  ~PairingEngine();

  PairingEngine(const PairingEngine&) = delete;
  PairingEngine& operator=(const PairingEngine&) = delete;

  /// Admits a session; blocks while the admission window is full
  /// (backpressure). Returns false once finish() has closed the window.
  bool submit(PairingRequest request);

  /// Closes the window, drains every admitted session and returns every
  /// report sorted by request id. Idempotent.
  std::vector<PairingReport> finish();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace wavekey::core
