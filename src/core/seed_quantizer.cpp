#include "core/seed_quantizer.hpp"

#include <algorithm>
#include <bit>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "dsp/gray_code.hpp"
#include "nn/layer.hpp"
#include "numeric/stats.hpp"

namespace wavekey::core {

SeedQuantizer SeedQuantizer::from_normal(const WaveKeyConfig& config) {
  if (config.quant_bins < 2)
    throw std::invalid_argument("SeedQuantizer::from_normal: need >= 2 bins");
  SeedQuantizer q;
  q.num_bins_ = config.quant_bins;
  q.bits_per_element_ = config.bits_per_element();
  std::vector<double> bounds;
  for (std::size_t i = 1; i < q.num_bins_; ++i)
    bounds.push_back(normal_quantile(static_cast<double>(i) / static_cast<double>(q.num_bins_)));
  q.boundaries_.assign(config.latent_dim, bounds);
  return q;
}

SeedQuantizer SeedQuantizer::from_pooled(std::vector<std::vector<double>> pooled,
                                         std::size_t num_bins) {
  if (num_bins < 2) throw std::invalid_argument("SeedQuantizer::from_pooled: need >= 2 bins");
  if (pooled.empty() || pooled.front().size() < num_bins * 4)
    throw std::invalid_argument("SeedQuantizer::from_pooled: pool too small");
  SeedQuantizer q;
  q.num_bins_ = num_bins;
  q.bits_per_element_ = static_cast<std::size_t>(std::bit_width(num_bins - 1));
  q.boundaries_.resize(pooled.size());
  for (std::size_t d = 0; d < pooled.size(); ++d) {
    for (std::size_t i = 1; i < q.num_bins_; ++i) {
      const double p = 100.0 * static_cast<double>(i) / static_cast<double>(q.num_bins_);
      q.boundaries_[d].push_back(percentile(pooled[d], p));
    }
  }
  return q;
}

SeedQuantizer SeedQuantizer::calibrated(EncoderPair& encoders, const WaveKeyDataset& dataset,
                                        const WaveKeyConfig& config) {
  if (dataset.size() < config.quant_bins * 4)
    throw std::invalid_argument("SeedQuantizer::calibrated: dataset too small");
  const std::size_t dim = encoders.latent_dim();
  std::vector<std::vector<double>> pooled(dim);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const Sample& s = dataset.sample(i);
    const auto fm = encoders.imu_features(s.imu);
    const auto fr = encoders.rfid_features(s.rfid);
    for (std::size_t d = 0; d < dim; ++d) {
      pooled[d].push_back(fm[d]);
      pooled[d].push_back(fr[d]);
    }
  }
  return from_pooled(std::move(pooled), config.quant_bins);
}

std::size_t SeedQuantizer::bin_of(std::size_t dim, double x) const {
  const auto& b = boundaries_.at(dim);
  return static_cast<std::size_t>(std::upper_bound(b.begin(), b.end(), x) - b.begin());
}

BitVec SeedQuantizer::quantize(const std::vector<double>& features) const {
  if (features.size() != boundaries_.size())
    throw std::invalid_argument("SeedQuantizer::quantize: feature length mismatch");
  BitVec seed;
  for (std::size_t d = 0; d < features.size(); ++d) {
    const auto bin = static_cast<std::uint32_t>(bin_of(d, features[d]));
    seed.append(dsp::gray_bits(bin, bits_per_element_));
  }
  return seed;
}

void SeedQuantizer::save(std::ostream& os) const {
  nn::write_u64(os, num_bins_);
  nn::write_u64(os, boundaries_.size());
  for (const auto& b : boundaries_) {
    std::vector<float> floats(b.begin(), b.end());
    nn::write_floats(os, floats);
  }
}

SeedQuantizer SeedQuantizer::load(std::istream& is) {
  SeedQuantizer q;
  q.num_bins_ = nn::read_u64(is);
  if (q.num_bins_ < 2 || q.num_bins_ > 1024) throw std::runtime_error("SeedQuantizer: bad bins");
  q.bits_per_element_ = static_cast<std::size_t>(std::bit_width(q.num_bins_ - 1));
  const std::uint64_t dim = nn::read_u64(is);
  q.boundaries_.resize(dim);
  for (auto& b : q.boundaries_) {
    std::vector<float> floats(q.num_bins_ - 1);
    nn::read_floats(is, floats);
    b.assign(floats.begin(), floats.end());
  }
  return q;
}

}  // namespace wavekey::core
