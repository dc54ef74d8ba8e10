#pragma once

// Shared infrastructure for the table/figure benches: one trained WaveKey
// system cached on disk (first bench run trains it, the rest reuse it), the
// evaluation cohort, and scaling of instance counts via WAVEKEY_BENCH_SCALE
// (bench/harness.hpp).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "core/model_store.hpp"
#include "core/system.hpp"
#include "sim/scenario.hpp"

namespace wavekey::bench {

/// Scales an instance count, keeping at least a handful of instances.
inline int scaled(int n) {
  const int s = static_cast<int>(static_cast<double>(n) * scale());
  return s < 4 ? 4 : s;
}

inline const char* model_path() { return "wavekey_models.bin"; }

/// The shared trained system (trains + caches on first use).
inline core::WaveKeySystem& system() {
  static core::WaveKeySystem sys = core::load_or_train(
      model_path(), core::default_dataset_config(), core::default_train_config(),
      core::WaveKeyConfig{});
  return sys;
}

/// The six simulated volunteers of the training campaign (the paper's
/// evaluation reuses its volunteers).
inline const std::vector<sim::VolunteerStyle>& cohort() {
  static const std::vector<sim::VolunteerStyle> styles = [] {
    const core::DatasetConfig dc = core::default_dataset_config();
    Rng rng(dc.seed);
    std::vector<sim::VolunteerStyle> out;
    for (std::size_t v = 0; v < dc.volunteers; ++v)
      out.push_back(sim::VolunteerStyle::sample(rng));
    return out;
  }();
  return styles;
}

/// Default evaluation scenario (paper SVI-B): Galaxy Watch, Alien 9640,
/// static lab, 5 m, 0 deg; gesture slightly longer than the 2 s window.
inline sim::ScenarioConfig default_scenario(int volunteer_index) {
  sim::ScenarioConfig sc;
  sc.volunteer = cohort()[static_cast<std::size_t>(volunteer_index) % cohort().size()];
  sc.gesture.active_s = 3.5;
  return sc;
}

/// Success-rate helper: runs `n` full key establishments of one scenario
/// configuration (seeding deterministically from `salt`), returns the
/// fraction that established a key. Pipeline rejections count as failures.
inline double key_establishment_rate(sim::ScenarioConfig base, int n, std::uint64_t salt) {
  int ok = 0;
  for (int i = 0; i < n; ++i) {
    sim::ScenarioConfig sc = base;
    sc.volunteer = cohort()[static_cast<std::size_t>(i) % cohort().size()];
    const core::WaveKeyOutcome out =
        system().establish_key(sc, salt * 1000003ull + static_cast<std::uint64_t>(i) * 7919ull);
    if (out.success) ++ok;
  }
  return 100.0 * static_cast<double>(ok) / static_cast<double>(n);
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("model: %s (eta=%.4f, l_s=%zu bits)\n", model_path(), system().config().eta,
              system().config().seed_bits());
  std::printf("================================================================\n");
}

}  // namespace wavekey::bench
