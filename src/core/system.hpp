#pragma once

// The top-level WaveKey public API: one object owning the trained encoder
// pair and the scheme hyperparameters, able to run complete simulated
// key-establishment sessions (data acquisition -> key-seed generation ->
// OT key agreement, Fig. 2 of the paper) and exposing the calibration
// procedure that fixes eta.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/encoders.hpp"
#include "core/key_seed.hpp"
#include "core/pairing.hpp"
#include "core/seed_quantizer.hpp"
#include "protocol/faulty_channel.hpp"
#include "protocol/session.hpp"
#include "sim/scenario.hpp"

namespace wavekey::core {

/// Outcome of one full key-establishment session.
struct WaveKeyOutcome {
  bool success = false;
  protocol::FailureReason failure = protocol::FailureReason::kNone;
  BitVec key;                ///< the established l_k-bit key (on success)
  double seed_mismatch = 1.0;///< S_M vs S_R bit mismatch of this session
  double elapsed_s = 0.0;    ///< gesture start -> key established
  bool pipelines_ok = false; ///< both sides produced a seed
};

/// Telemetry record of one attempt inside establish_key_robust.
struct AttemptTrace {
  int attempt = 0;            ///< 1-based attempt index
  bool pipelines_ok = false;  ///< both pipelines produced a seed
  double seed_mismatch = 1.0;
  double eta = 0.0;           ///< error-correction rate used this attempt
  bool success = false;
  protocol::FailureReason failure = protocol::FailureReason::kNone;
  double elapsed_s = 0.0;     ///< session clock at exit of this attempt
  protocol::ArqStats arq;     ///< retransmission counters of this attempt
};

/// Policy of the multi-attempt orchestrator.
struct RobustSessionConfig {
  std::size_t max_attempts = 3;
  /// Additive per-attempt relaxation of eta (graceful degradation); the
  /// effective eta stays capped at config.eta_security_cap so Eq. (4)'s
  /// guessing bound is never violated.
  double eta_relax_per_attempt = 0.0;
  protocol::ArqConfig arq;
  /// Link-fault model; nullopt derives it from the scenario's LinkQuality
  /// (see sim::LinkQuality::for_environment). The channel seed is re-derived
  /// per attempt so every retry sees fresh fault randomness.
  std::optional<protocol::FaultyChannelConfig> channel;
};

/// Outcome of a robust (multi-attempt) key establishment.
struct RobustOutcome {
  bool success = false;
  protocol::FailureReason failure = protocol::FailureReason::kNone;  ///< last attempt's
  BitVec key;
  int attempts_used = 0;
  double total_elapsed_s = 0.0;       ///< summed over attempts (re-waves included)
  std::vector<AttemptTrace> trace;    ///< one entry per attempt, in order
};

class WaveKeySystem {
 public:
  /// Takes ownership of a trained encoder pair. The quantizer defaults to
  /// the paper's standard-normal layout; call calibrate() to switch to the
  /// empirical-quantile layout and fix eta.
  WaveKeySystem(EncoderPair encoders, WaveKeyConfig config);

  const WaveKeyConfig& config() const { return config_; }
  WaveKeyConfig& config() { return config_; }
  EncoderPair& encoders() { return encoders_; }
  const SeedQuantizer& quantizer() const { return quantizer_; }
  void set_quantizer(SeedQuantizer q) { quantizer_ = std::move(q); }

  /// Calibrates the quantizer bins (empirical quantiles) and eta on a
  /// dataset (SVI-C2); stores both in the system.
  EtaCalibration calibrate(const WaveKeyDataset& dataset);

  /// Runs one complete simulated session: gesture + sensors + pipelines +
  /// encoders + the full OT key agreement over the simulated link.
  /// `interceptor` optionally interposes an adversary on the channel.
  WaveKeyOutcome establish_key(const sim::ScenarioConfig& scenario, std::uint64_t seed,
                               const protocol::Interceptor& interceptor = {});

  /// Fault-tolerant key establishment: re-runs the gesture -> pipeline ->
  /// agreement loop up to max_attempts times with fresh randomness per
  /// attempt (new gesture, new pads, new channel fault schedule), runs the
  /// agreement over the ARQ transport on a FaultyChannel, and optionally
  /// relaxes eta per attempt within the calibrated security cap. Every
  /// attempt is recorded in the returned trace.
  RobustOutcome establish_key_robust(const sim::ScenarioConfig& scenario, std::uint64_t seed,
                                     const RobustSessionConfig& robust = {},
                                     const protocol::Interceptor& interceptor = {});

  /// Protocol parameters implied by the current config.
  protocol::AgreementParams agreement_params() const;

 private:
  EncoderPair encoders_;
  WaveKeyConfig config_;
  SeedQuantizer quantizer_;
};

}  // namespace wavekey::core
