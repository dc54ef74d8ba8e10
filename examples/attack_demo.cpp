// Attack tour: runs every adversary from the paper's SSV threat model once
// against the same victim session and prints what each one achieves. A
// compact companion to bench_security_spoofing (which runs the statistics).

#include <cstdio>

#include "attacks/attack_eval.hpp"
#include "examples/example_common.hpp"
#include "sim/scenario.hpp"

using namespace wavekey;

int main() {
  core::WaveKeySystem system = examples::make_system();
  const core::WaveKeyConfig& cfg = system.config();

  sim::ScenarioConfig scenario;
  Rng style_rng(11);
  scenario.volunteer = sim::VolunteerStyle::sample(style_rng);
  scenario.gesture.active_s = 3.5;
  const std::uint64_t session_seed = 123456;

  std::printf("victim session: eta=%.3f, l_s=%zu bits\n\n", cfg.eta, cfg.seed_bits());

  // Eavesdropper.
  {
    protocol::Bytes transcript;
    const auto outcome =
        system.establish_key(scenario, session_seed, attacks::make_eavesdropper(&transcript));
    std::printf("[eavesdrop]   session %s; %zu transcript bytes; OT hides both pad streams\n",
                outcome.success ? "succeeded" : "failed", transcript.size());
  }

  // Man in the middle.
  {
    const auto outcome = system.establish_key(
        scenario, session_seed, attacks::make_tamperer(protocol::MessageType::kMsgB, 1234));
    std::printf("[MitM]        tampered M_B -> session %s\n",
                outcome.success ? "still succeeded (within ECC budget)" : "aborted");
  }

  // Delay attack vs the tau deadline. The held message is M_B: M_A leaves
  // when the precompute ends, ~2 s before the window closes, so 400 ms on
  // it still lands inside the window; the seed-dependent M_B is what tau
  // bounds.
  {
    const auto outcome = system.establish_key(
        scenario, session_seed, attacks::make_delayer(protocol::MessageType::kMsgB, 0.4));
    std::printf("[delay 400ms] M_B held back -> %s\n",
                outcome.success ? "succeeded (check tau!)" : "rejected by the tau deadline");
  }

  // Random-guess device spoofing.
  {
    const auto victim =
        core::simulate_seed_pair(system.encoders(), system.quantizer(), cfg, scenario, session_seed);
    crypto::Drbg rng(5);
    int hits = 0;
    for (int i = 0; i < 10000 && victim; ++i)
      if (attacks::run_random_guess_attack(victim->mobile_seed, cfg.eta, rng).success()) ++hits;
    std::printf("[guess]       %d / 10000 random seeds accepted (Eq.4 predicts %.2e)\n", hits,
                core::random_guess_success_rate(cfg.seed_bits(), cfg.eta));
  }

  // Gesture mimicking.
  {
    const auto r = attacks::run_mimic_attack(system.encoders(), system.quantizer(), cfg,
                                             scenario, attacks::MimicSkill::average(),
                                             session_seed);
    if (r)
      std::printf("[mimic]       shadowing mimic's seed mismatch %.2f vs eta %.2f -> %s\n",
                  r->mismatch, cfg.eta, r->success() ? "ACCEPTED (!)" : "rejected");
  }

  // Camera recovery, both strategies.
  for (const bool remote : {true, false}) {
    const auto r = attacks::run_camera_spoof(
        system.encoders(), system.quantizer(), cfg, scenario,
        remote ? sim::CameraConfig::remote() : sim::CameraConfig::in_situ(), session_seed);
    if (r)
      std::printf("[camera %s] mismatch %.2f, deadline %s -> %s\n",
                  remote ? "rmt" : "2-D", r->mismatch,
                  r->within_deadline ? "met" : "missed", r->success() ? "ACCEPTED (!)" : "rejected");
  }

  // RFID signal spoofing.
  {
    const auto m = attacks::run_signal_spoof(system.encoders(), system.quantizer(), cfg,
                                             scenario, session_seed);
    if (m)
      std::printf("[spoof RF]    replay-induced mismatch %.2f -> %s\n", *m,
                  *m > cfg.eta ? "session fails, attack visible" : "check!");
  }
  return 0;
}
