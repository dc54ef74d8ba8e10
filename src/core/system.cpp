#include "core/system.hpp"

#include <algorithm>

namespace wavekey::core {
namespace {

/// Maps the scenario's link quality onto the protocol's channel fault model.
protocol::FaultyChannelConfig channel_from_link(const sim::LinkQuality& q, std::uint64_t seed) {
  protocol::LinkFaultConfig f;
  f.loss = q.loss;
  f.corrupt = q.corrupt;
  f.duplicate = q.duplicate;
  f.jitter = q.jitter_ms > 0.0 ? protocol::JitterDistribution::kExponential
                               : protocol::JitterDistribution::kNone;
  f.jitter_s = q.jitter_ms / 1000.0;
  return protocol::FaultyChannelConfig::symmetric(f, seed);
}

}  // namespace

WaveKeySystem::WaveKeySystem(EncoderPair encoders, WaveKeyConfig config)
    : encoders_(std::move(encoders)),
      config_(config),
      quantizer_(SeedQuantizer::from_normal(config)) {
  if (encoders_.latent_dim() != config_.latent_dim)
    throw std::invalid_argument("WaveKeySystem: encoder latent_dim != config latent_dim");
}

EtaCalibration WaveKeySystem::calibrate(const WaveKeyDataset& dataset) {
  quantizer_ = SeedQuantizer::calibrated(encoders_, dataset, config_);
  const EtaCalibration cal =
      calibrate_eta(encoders_, dataset, quantizer_, config_.eta_security_cap);
  config_.eta = cal.eta;
  return cal;
}

protocol::AgreementParams WaveKeySystem::agreement_params() const {
  protocol::AgreementParams params;
  params.seed_bits = config_.seed_bits();
  params.key_bits = config_.key_bits;
  params.eta = config_.eta;
  return params;
}

WaveKeyOutcome WaveKeySystem::establish_key(const sim::ScenarioConfig& scenario,
                                            std::uint64_t seed,
                                            const protocol::Interceptor& interceptor) {
  WaveKeyOutcome outcome;

  const auto seeds = simulate_seed_pair(encoders_, quantizer_, config_, scenario, seed);
  if (!seeds) return outcome;  // pipelines rejected the recording
  outcome.pipelines_ok = true;
  outcome.seed_mismatch = seeds->mismatch;

  protocol::SessionConfig session;
  session.params = agreement_params();
  session.gesture_window_s = config_.gesture_window_s;
  session.tau_s = config_.tau_s;

  crypto::Drbg mobile_rng(seed ^ 0xAB1Eull);
  crypto::Drbg server_rng(seed ^ 0x5E44ull);
  const protocol::SessionResult result = protocol::run_key_agreement(
      session, seeds->mobile_seed, seeds->server_seed, mobile_rng, server_rng, interceptor);

  outcome.success = result.success;
  outcome.failure = result.failure;
  outcome.elapsed_s = result.elapsed_s;
  if (result.success) outcome.key = result.mobile_key;
  return outcome;
}

RobustOutcome WaveKeySystem::establish_key_robust(const sim::ScenarioConfig& scenario,
                                                  std::uint64_t seed,
                                                  const RobustSessionConfig& robust,
                                                  const protocol::Interceptor& interceptor) {
  RobustOutcome outcome;
  const sim::LinkQuality link =
      scenario.link ? *scenario.link
                    : sim::LinkQuality::for_environment(scenario.environment_id,
                                                        scenario.dynamic_environment);
  const protocol::FaultyChannelConfig base_channel =
      robust.channel ? *robust.channel : channel_from_link(link, seed);

  for (std::size_t a = 0; a < robust.max_attempts; ++a) {
    AttemptTrace trace;
    trace.attempt = static_cast<int>(a) + 1;
    outcome.attempts_used = trace.attempt;
    // Fresh randomness per attempt: new gesture, new pads, new fault schedule.
    const std::uint64_t attempt_seed = seed + 0x9E3779B97F4A7C15ull * (a + 1);
    trace.eta = std::min(config_.eta + robust.eta_relax_per_attempt * static_cast<double>(a),
                         config_.eta_security_cap);

    const auto seeds = simulate_seed_pair(encoders_, quantizer_, config_, scenario, attempt_seed);
    if (!seeds) {
      // Rejected recording: the user re-waves, which costs a gesture window.
      trace.elapsed_s = config_.gesture_window_s;
      outcome.failure = protocol::FailureReason::kNone;
      outcome.total_elapsed_s += trace.elapsed_s;
      outcome.trace.push_back(trace);
      continue;
    }
    trace.pipelines_ok = true;
    trace.seed_mismatch = seeds->mismatch;

    protocol::SessionConfig session;
    session.params = agreement_params();
    session.params.eta = trace.eta;
    session.gesture_window_s = config_.gesture_window_s;
    session.tau_s = config_.tau_s;

    crypto::Drbg mobile_rng(attempt_seed ^ 0xAB1Eull);
    crypto::Drbg server_rng(attempt_seed ^ 0x5E44ull);

    protocol::FaultyChannelConfig channel_config = base_channel;
    channel_config.seed = base_channel.seed ^ (0xC0FFEEull + (a + 1) * 0x9E37ull);
    protocol::FaultyChannel channel(channel_config);
    const protocol::SessionResult result = protocol::run_key_agreement_arq(
        session, robust.arq, channel, seeds->mobile_seed, seeds->server_seed, mobile_rng,
        server_rng, interceptor);

    trace.success = result.success;
    trace.failure = result.failure;
    trace.elapsed_s = result.elapsed_s;
    trace.arq = result.arq;
    outcome.failure = result.failure;
    outcome.total_elapsed_s += result.elapsed_s;
    outcome.trace.push_back(trace);
    if (result.success) {
      outcome.success = true;
      outcome.key = result.mobile_key;
      break;
    }
  }
  return outcome;
}

}  // namespace wavekey::core
