#include "attacks/attack_eval.hpp"

#include "core/dataset.hpp"
#include "imu/imu_pipeline.hpp"
#include "rfid/rfid_pipeline.hpp"

namespace wavekey::attacks {

SpoofAttemptResult run_random_guess_attack(const BitVec& victim_seed, double eta,
                                           crypto::Drbg& rng) {
  SpoofAttemptResult r;
  const BitVec guess = rng.random_bits(victim_seed.size());
  r.mismatch = guess.mismatch_ratio(victim_seed);
  r.seed_accepted = r.mismatch <= eta;
  r.within_deadline = true;  // guessing costs nothing
  return r;
}

std::optional<LatentPair> mimic_latent_pair(core::EncoderPair& encoders,
                                            const core::WaveKeyConfig& config,
                                            const sim::ScenarioConfig& victim_scenario,
                                            const MimicSkill& skill, std::uint64_t seed) {
  // Victim session: produces the true f_M.
  sim::ScenarioSimulator simulator(victim_scenario, seed);
  const sim::SessionRecording victim = simulator.run();

  imu::ImuPipelineConfig ic;
  ic.window_s = config.gesture_window_s;
  const auto victim_imu = imu::process_imu(victim.imu, ic);
  if (!victim_imu) return std::nullopt;
  Matrix dummy_rfid(2, 2);
  const core::Sample victim_sample =
      core::WaveKeyDataset::make_sample(victim_imu->linear_accel, dummy_rfid, config);

  // Mimic: distorted copy of the trajectory, recorded with the mimic's own
  // device and processed identically.
  Rng rng(seed ^ 0x313131C1ull);
  const MimicTrajectory mimic(victim.trajectory, skill, rng);
  sim::ImuSensor mimic_sensor(victim_scenario.device, rng);
  const sim::ImuRecord mimic_rec =
      mimic_sensor.record(mimic, 0.0, mimic.total_duration(), rng);
  const auto mimic_imu = imu::process_imu(mimic_rec, ic);
  if (!mimic_imu) return std::nullopt;
  const core::Sample mimic_sample =
      core::WaveKeyDataset::make_sample(mimic_imu->linear_accel, dummy_rfid, config);

  LatentPair pair;
  pair.victim = encoders.imu_features(victim_sample.imu);
  pair.attacker = encoders.imu_features(mimic_sample.imu);
  return pair;
}

std::optional<SpoofAttemptResult> run_mimic_attack(core::EncoderPair& encoders,
                                                   const core::SeedQuantizer& quantizer,
                                                   const core::WaveKeyConfig& config,
                                                   const sim::ScenarioConfig& victim_scenario,
                                                   const MimicSkill& skill, std::uint64_t seed) {
  const auto latents = mimic_latent_pair(encoders, config, victim_scenario, skill, seed);
  if (!latents) return std::nullopt;
  const BitVec victim_seed = quantizer.quantize(latents->victim);
  const BitVec mimic_seed = quantizer.quantize(latents->attacker);

  SpoofAttemptResult r;
  r.mismatch = mimic_seed.mismatch_ratio(victim_seed);
  r.seed_accepted = r.mismatch <= config.eta;
  r.within_deadline = true;  // the mimic acts live
  return r;
}

std::optional<SpoofAttemptResult> run_camera_spoof(core::EncoderPair& encoders,
                                                   const core::SeedQuantizer& quantizer,
                                                   const core::WaveKeyConfig& config,
                                                   const sim::ScenarioConfig& victim_scenario,
                                                   const sim::CameraConfig& camera_config,
                                                   std::uint64_t seed) {
  sim::ScenarioSimulator simulator(victim_scenario, seed);
  const sim::SessionRecording victim = simulator.run();

  imu::ImuPipelineConfig ic;
  ic.window_s = config.gesture_window_s;
  const auto victim_imu = imu::process_imu(victim.imu, ic);
  if (!victim_imu) return std::nullopt;
  Matrix dummy_rfid(2, 2);
  const core::Sample victim_sample =
      core::WaveKeyDataset::make_sample(victim_imu->linear_accel, dummy_rfid, config);
  const BitVec victim_seed = quantizer.quantize(encoders.imu_features(victim_sample.imu));

  // Camera three meters away, line of sight to the hand (paper setup).
  Rng rng(seed ^ 0xCA3E3Aull);
  const Vec3 view{1.0, 0.3, 0.0};
  const auto attack =
      run_camera_attack(encoders, quantizer, config, victim.trajectory, camera_config, view, rng);
  if (!attack) return std::nullopt;

  SpoofAttemptResult r;
  r.mismatch = attack->seed.mismatch_ratio(victim_seed);
  r.seed_accepted = r.mismatch <= config.eta;
  r.within_deadline = attack->within_deadline;
  return r;
}

std::optional<double> run_signal_spoof(core::EncoderPair& encoders,
                                       const core::SeedQuantizer& quantizer,
                                       const core::WaveKeyConfig& config,
                                       const sim::ScenarioConfig& victim_scenario,
                                       std::uint64_t seed) {
  // The victim performs their gesture...
  sim::ScenarioSimulator victim_sim(victim_scenario, seed);
  const sim::SessionRecording victim = victim_sim.run();
  // ...but the reader hears a *replayed* recording of a different gesture
  // (the adversary's spoofed backscatter).
  sim::ScenarioSimulator spoof_sim(victim_scenario, seed ^ 0x5F00Full);
  const sim::SessionRecording spoof = spoof_sim.run();

  imu::ImuPipelineConfig ic;
  ic.window_s = config.gesture_window_s;
  rfid::RfidPipelineConfig rc;
  rc.window_s = config.gesture_window_s;
  const auto imu_out = imu::process_imu(victim.imu, ic);
  const auto rfid_out = rfid::process_rfid(spoof.rfid, rc);
  if (!imu_out || !rfid_out) return std::nullopt;

  const core::Sample sample =
      core::WaveKeyDataset::make_sample(imu_out->linear_accel, rfid_out->processed, config);
  const BitVec seed_m = quantizer.quantize(encoders.imu_features(sample.imu));
  const BitVec seed_r = quantizer.quantize(encoders.rfid_features(sample.rfid));
  return seed_m.mismatch_ratio(seed_r);
}

protocol::Interceptor make_eavesdropper(protocol::Bytes* transcript) {
  return [transcript](protocol::InFlightMessage& msg) -> double {
    transcript->insert(transcript->end(), msg.payload.begin(), msg.payload.end());
    return 0.0;
  };
}

protocol::Interceptor make_tamperer(protocol::MessageType target, std::size_t flip_bit) {
  return [target, flip_bit](protocol::InFlightMessage& msg) -> double {
    if (msg.type == target && !msg.payload.empty()) {
      const std::size_t bit = flip_bit % (msg.payload.size() * 8);
      msg.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    return 0.0;
  };
}

protocol::Interceptor make_delayer(protocol::MessageType target, double delay_s) {
  return [target, delay_s](protocol::InFlightMessage& msg) -> double {
    return msg.type == target ? delay_s : 0.0;
  };
}

}  // namespace wavekey::attacks
