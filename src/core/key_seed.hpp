#pragma once

// Key-seed statistics. A key-seed is SeedQuantizer::quantize of a latent
// feature vector (SIV-C, seed_quantizer.hpp); this file hosts the eta
// calibration procedure of SVI-C2: eta is set at the 99th percentile of the
// observed seed bit-mismatch distribution so that >= 99% of benign sessions
// reconcile.

#include <vector>

#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/encoders.hpp"
#include "core/seed_quantizer.hpp"
#include "numeric/bitvec.hpp"

namespace wavekey::core {

/// Seed bit-mismatch ratios between f_M and f_R over a dataset.
std::vector<double> seed_mismatch_ratios(EncoderPair& encoders, const WaveKeyDataset& dataset,
                                         const SeedQuantizer& quantizer);

struct EtaCalibration {
  double eta = 0.0;               ///< chosen error-correction rate
  double mean_mismatch = 0.0;     ///< dataset mean seed mismatch
  double p99_mismatch = 0.0;      ///< 99th percentile (eta is set here)
  bool capped = false;            ///< p99 exceeded the security cap
  std::size_t samples = 0;
};

/// Runs the calibration on a dataset: eta = 99th percentile of mismatch,
/// with a floor of one correctable seed bit and a ceiling of
/// `eta_security_cap` (the paper's random-guess security level takes
/// precedence over benign success when the two conflict).
EtaCalibration calibrate_eta(EncoderPair& encoders, const WaveKeyDataset& dataset,
                             const SeedQuantizer& quantizer, double eta_security_cap = 0.25);

/// Eq. (4): success probability of a random-guess device-spoofing attack,
///   P_g = sum_{i=0}^{floor(l_s * eta)} C(l_s, i) / 2^{l_s}.
double random_guess_success_rate(std::size_t seed_bits, double eta);

}  // namespace wavekey::core
