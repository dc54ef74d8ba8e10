#include "core/key_seed.hpp"

#include <cmath>
#include <stdexcept>

#include "numeric/stats.hpp"

namespace wavekey::core {

std::vector<double> seed_mismatch_ratios(EncoderPair& encoders, const WaveKeyDataset& dataset,
                                         const SeedQuantizer& quantizer) {
  std::vector<double> ratios;
  ratios.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const Sample& s = dataset.sample(i);
    const BitVec seed_m = quantizer.quantize(encoders.imu_features(s.imu));
    const BitVec seed_r = quantizer.quantize(encoders.rfid_features(s.rfid));
    ratios.push_back(seed_m.mismatch_ratio(seed_r));
  }
  return ratios;
}

EtaCalibration calibrate_eta(EncoderPair& encoders, const WaveKeyDataset& dataset,
                             const SeedQuantizer& quantizer, double eta_security_cap) {
  const std::vector<double> ratios = seed_mismatch_ratios(encoders, dataset, quantizer);
  if (ratios.empty()) throw std::invalid_argument("calibrate_eta: empty dataset");
  EtaCalibration cal;
  cal.samples = ratios.size();
  cal.mean_mismatch = mean(ratios);
  cal.p99_mismatch = percentile(ratios, 99.0);
  // Floor: at least one correctable seed bit, so benign quantization noise
  // on a single boundary never kills the session.
  const double floor_eta = 1.0 / static_cast<double>(quantizer.seed_bits());
  cal.eta = std::max(cal.p99_mismatch, floor_eta);
  if (cal.eta > eta_security_cap) {
    cal.eta = std::max(eta_security_cap, floor_eta);
    cal.capped = true;
  }
  return cal;
}

double random_guess_success_rate(std::size_t seed_bits, double eta) {
  const auto max_errors = static_cast<std::size_t>(std::floor(eta * static_cast<double>(seed_bits)));
  // Sum of binomial coefficients in log space to survive large l_s.
  double total = 0.0;
  double log_c = 0.0;  // log C(n, 0)
  for (std::size_t i = 0; i <= max_errors; ++i) {
    if (i > 0)
      log_c += std::log(static_cast<double>(seed_bits - i + 1)) - std::log(static_cast<double>(i));
    total += std::exp(log_c - static_cast<double>(seed_bits) * std::log(2.0));
  }
  return total;
}

}  // namespace wavekey::core
