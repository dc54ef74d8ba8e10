#pragma once

// Session-level helper: simulates one key-establishment gesture under a
// scenario, runs both real pipelines, extracts the latents with a trained
// encoder pair, and produces the two key-seeds. This is the common
// front half of live key establishment (core/session) and of every
// evaluation bench (Tables I/II, Fig. 7, SVI-E/F).

#include <cstdint>
#include <optional>

#include "core/config.hpp"
#include "core/encoders.hpp"
#include "core/seed_quantizer.hpp"
#include "numeric/bitvec.hpp"
#include "sim/scenario.hpp"

namespace wavekey::core {

struct SeedPairResult {
  BitVec mobile_seed;   ///< S_M from the IMU pipeline + IMU-En
  BitVec server_seed;   ///< S_R from the RFID pipeline + RF-En
  double mismatch = 0;  ///< bit mismatch ratio between the two
  double imu_start = 0; ///< detected gesture start (mobile clock)
  double rfid_start = 0;///< detected gesture start (server clock)
};

/// Simulates one session and produces the two seeds. Returns nullopt when a
/// pipeline rejects the recording (no gesture detected / window truncated).
std::optional<SeedPairResult> simulate_seed_pair(EncoderPair& encoders,
                                                 const SeedQuantizer& quantizer,
                                                 const WaveKeyConfig& config,
                                                 const sim::ScenarioConfig& scenario,
                                                 std::uint64_t seed);

}  // namespace wavekey::core
