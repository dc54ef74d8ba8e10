// Tests of the core WaveKey library: configuration arithmetic, dataset
// generation, encoder training/serialization/pruning, seed quantization
// (normal + calibrated), eta calibration, and the end-to-end WaveKeySystem.
//
// Training here is deliberately tiny (small dataset, few epochs): these
// tests validate plumbing and invariants, not headline accuracy — the
// benches measure that with the full model.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>

#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/encoders.hpp"
#include "core/key_seed.hpp"
#include "core/model_store.hpp"
#include "core/pairing.hpp"
#include "core/seed_quantizer.hpp"
#include "core/system.hpp"
#include "numeric/rng.hpp"
#include "numeric/stats.hpp"

namespace wavekey::core {
namespace {

DatasetConfig tiny_dataset_config() {
  DatasetConfig dc;
  dc.volunteers = 3;
  dc.devices = 2;
  dc.gestures_per_pair = 2;
  dc.windows_per_gesture = 6;
  dc.gesture_active_s = 8.0;
  return dc;
}

TrainConfig tiny_train_config() {
  TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 16;
  return tc;
}

// A process-wide tiny trained setup shared by the heavier tests.
struct TinySetup {
  WaveKeyDataset dataset;
  EncoderPair encoders;
  TinySetup()
      : dataset(WaveKeyDataset::generate(tiny_dataset_config())),
        encoders([] {
          Rng rng(7);
          return EncoderPair(WaveKeyConfig{}.latent_dim, rng);
        }()) {
    encoders.train(dataset, tiny_train_config());
  }
};

TinySetup& tiny_setup() {
  static TinySetup setup;
  return setup;
}

TEST(WaveKeyConfigTest, DerivedQuantities) {
  WaveKeyConfig cfg;
  EXPECT_EQ(cfg.latent_dim, 12u);
  EXPECT_EQ(cfg.quant_bins, 9u);
  EXPECT_EQ(cfg.bits_per_element(), 4u);  // ceil(log2 9)
  EXPECT_EQ(cfg.seed_bits(), 48u);
  // l_b = ceil(256 / (2*48)) = 3.
  EXPECT_EQ(cfg.pad_bits(), 3u);

  cfg.quant_bins = 8;
  EXPECT_EQ(cfg.bits_per_element(), 3u);
  cfg.quant_bins = 16;
  EXPECT_EQ(cfg.bits_per_element(), 4u);
}

TEST(DatasetTest, GeneratesDiverseSamplesWithCorrectShapes) {
  const WaveKeyDataset& ds = tiny_setup().dataset;
  // 3 volunteers x 2 devices x 2 gestures x 6 windows = 72 nominal; allow
  // a few pipeline rejections.
  EXPECT_GT(ds.size(), 50u);
  EXPECT_LE(ds.size(), 72u);
  for (std::size_t i = 0; i < ds.size(); i += 13) {
    const Sample& s = ds.sample(i);
    EXPECT_EQ(s.imu.shape(), (std::vector<std::size_t>{3, 200}));
    EXPECT_EQ(s.rfid.shape(), (std::vector<std::size_t>{2, 400}));
    EXPECT_EQ(s.rfid_mag.shape(), (std::vector<std::size_t>{400}));
  }
}

TEST(DatasetTest, GenerationIsDeterministic) {
  DatasetConfig dc = tiny_dataset_config();
  dc.volunteers = 1;
  dc.devices = 1;
  dc.windows_per_gesture = 2;
  const WaveKeyDataset a = WaveKeyDataset::generate(dc);
  const WaveKeyDataset b = WaveKeyDataset::generate(dc);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < a.sample(i).imu.size(); j += 61)
      EXPECT_FLOAT_EQ(a.sample(i).imu[j], b.sample(i).imu[j]);
}

TEST(DatasetTest, ImuInputIsRmsNormalized) {
  const WaveKeyDataset& ds = tiny_setup().dataset;
  for (std::size_t i = 0; i < std::min<std::size_t>(ds.size(), 10); ++i) {
    const auto& imu = ds.sample(i).imu;
    double sum2 = 0.0;
    for (std::size_t j = 0; j < imu.size(); ++j) sum2 += imu[j] * imu[j];
    EXPECT_NEAR(std::sqrt(sum2 / static_cast<double>(imu.size())), 1.0, 1e-3);
  }
}

TEST(DatasetTest, BatchAssemblesRows) {
  const WaveKeyDataset& ds = tiny_setup().dataset;
  nn::Tensor imu, rfid, mag;
  ds.batch({0, 2, 4}, imu, rfid, mag);
  EXPECT_EQ(imu.shape(), (std::vector<std::size_t>{3, 3, 200}));
  EXPECT_EQ(rfid.shape(), (std::vector<std::size_t>{3, 2, 400}));
  EXPECT_EQ(mag.shape(), (std::vector<std::size_t>{3, 400}));
  for (std::size_t j = 0; j < 600; j += 97)
    EXPECT_FLOAT_EQ(imu[600 + j], ds.sample(2).imu[j]);
  EXPECT_THROW(ds.batch({}, imu, rfid, mag), std::invalid_argument);
}

TEST(EncoderPairTest, TrainingReducesJointLoss) {
  // Compare the first and last epochs' training-mode losses: both the
  // cross-modal feature distance and the decoder reconstruction must fall.
  const WaveKeyDataset& ds = tiny_setup().dataset;
  Rng rng(99);
  EncoderPair fresh(12, rng);
  TrainConfig tc = tiny_train_config();
  tc.epochs = 1;
  const LossBreakdown first = fresh.train(ds, tc);
  tc.epochs = 7;
  const LossBreakdown last = fresh.train(ds, tc);
  EXPECT_LT(last.feature, first.feature);
  EXPECT_LT(last.decoder, first.decoder);
}

TEST(EncoderPairTest, FeatureVectorsHaveLatentDim) {
  TinySetup& ts = tiny_setup();
  const Sample& s = ts.dataset.sample(0);
  EXPECT_EQ(ts.encoders.imu_features(s.imu).size(), 12u);
  EXPECT_EQ(ts.encoders.rfid_features(s.rfid).size(), 12u);
}

TEST(EncoderPairTest, SaveLoadRoundTripsFeatures) {
  TinySetup& ts = tiny_setup();
  std::stringstream ss;
  ts.encoders.save(ss);
  Rng rng(1);
  EncoderPair loaded(12, rng);
  loaded.load(ss);
  const Sample& s = ts.dataset.sample(3);
  const auto f1 = ts.encoders.imu_features(s.imu);
  const auto f2 = loaded.imu_features(s.imu);
  for (std::size_t i = 0; i < f1.size(); ++i) EXPECT_FLOAT_EQ(f1[i], f2[i]);
}

TEST(EncoderPairTest, LoadRejectsWrongLatentDim) {
  TinySetup& ts = tiny_setup();
  std::stringstream ss;
  ts.encoders.save(ss);
  Rng rng(2);
  EncoderPair other(10, rng);
  EXPECT_THROW(other.load(ss), std::runtime_error);
}

TEST(EncoderPairTest, PruningShrinksLatentAndStaysFunctional) {
  // Copy the trained encoders via serialization, then prune twice.
  TinySetup& ts = tiny_setup();
  std::stringstream ss;
  ts.encoders.save(ss);
  Rng rng(3);
  EncoderPair pruned(12, rng);
  pruned.load(ss);

  const std::size_t removed1 = pruned.prune_lowest_variance_unit(ts.dataset);
  EXPECT_LT(removed1, 12u);
  EXPECT_EQ(pruned.latent_dim(), 11u);
  (void)pruned.prune_lowest_variance_unit(ts.dataset);
  EXPECT_EQ(pruned.latent_dim(), 10u);

  const Sample& s = ts.dataset.sample(0);
  EXPECT_EQ(pruned.imu_features(s.imu).size(), 10u);
  EXPECT_EQ(pruned.rfid_features(s.rfid).size(), 10u);

  // Retraining the pruned model must work (decoder input was fixed up).
  TrainConfig tc = tiny_train_config();
  tc.epochs = 1;
  EXPECT_NO_THROW(pruned.train(ts.dataset, tc));
}

TEST(SeedQuantizerTest, NormalModeMatchesEquationOne) {
  WaveKeyConfig cfg;
  const SeedQuantizer q = SeedQuantizer::from_normal(cfg);
  EXPECT_EQ(q.latent_dim(), 12u);
  EXPECT_EQ(q.seed_bits(), 48u);
  // Boundary i solves Phi(b) = i/9, identical across dims.
  for (std::size_t d = 0; d < 12; ++d) {
    EXPECT_EQ(q.bin_of(d, -10.0), 0u);
    EXPECT_EQ(q.bin_of(d, 0.0), 4u);  // median of 9 bins
    EXPECT_EQ(q.bin_of(d, 10.0), 8u);
  }
}

/// The standard-normal layout with `num_bins` bins over `dim` dimensions.
SeedQuantizer normal_quantizer(std::size_t num_bins, std::size_t dim = 12) {
  WaveKeyConfig cfg;
  cfg.quant_bins = num_bins;
  cfg.latent_dim = dim;
  return SeedQuantizer::from_normal(cfg);
}

TEST(QuantizerTest, RejectsDegenerateBins) {
  EXPECT_THROW(normal_quantizer(1), std::invalid_argument);
  EXPECT_THROW(SeedQuantizer::from_pooled({std::vector<double>(64, 0.0)}, 1),
               std::invalid_argument);
}

TEST(QuantizerTest, BoundariesSolveEquationOne) {
  // Phi(b_i) = i / N_b (Eq. (1) of the paper): the bin index steps from
  // i - 1 to i exactly at the i-th standard-normal quantile.
  const SeedQuantizer q = normal_quantizer(9, 1);
  for (std::size_t i = 1; i < 9; ++i) {
    const double b = normal_quantile(static_cast<double>(i) / 9.0);
    EXPECT_EQ(q.bin_of(0, b - 1e-9), i - 1) << i;
    EXPECT_EQ(q.bin_of(0, b + 1e-9), i) << i;
  }
}

TEST(QuantizerTest, BinOfIsMonotoneAndCoversRange) {
  const SeedQuantizer q = normal_quantizer(9, 1);
  EXPECT_EQ(q.bin_of(0, -10.0), 0u);
  EXPECT_EQ(q.bin_of(0, 10.0), 8u);
  std::size_t prev = 0;
  for (double x = -4.0; x <= 4.0; x += 0.01) {
    const std::size_t b = q.bin_of(0, x);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

class QuantizerBinCountTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantizerBinCountTest, EqualProbabilityBinsAreEquallyLikely) {
  const std::size_t nb = GetParam();
  const SeedQuantizer q = normal_quantizer(nb, 1);
  Rng rng(31 + nb);
  std::vector<std::size_t> counts(nb, 0);
  const int n = 90000;
  for (int i = 0; i < n; ++i) counts[q.bin_of(0, rng.normal())]++;
  const double expected = static_cast<double>(n) / static_cast<double>(nb);
  for (std::size_t b = 0; b < nb; ++b)
    EXPECT_NEAR(counts[b], expected, 6.0 * std::sqrt(expected)) << "bin " << b;
}

TEST_P(QuantizerBinCountTest, SeedLengthMatchesBitsPerElement) {
  const SeedQuantizer q = normal_quantizer(GetParam());
  const std::vector<double> feature(12, 0.1);
  EXPECT_EQ(q.quantize(feature).size(), 12 * q.bits_per_element());
  EXPECT_EQ(q.seed_bits(), 12 * q.bits_per_element());
}

INSTANTIATE_TEST_SUITE_P(BinSweep, QuantizerBinCountTest,
                         ::testing::Values(2, 4, 5, 8, 9, 12, 15, 16));

TEST(QuantizerTest, NearbyValuesDifferInAtMostOneBitAcrossOneBoundary) {
  // Gray coding: values just either side of any one boundary quantize to
  // seeds one bit apart.
  const SeedQuantizer q = normal_quantizer(9, 1);
  for (std::size_t i = 1; i < 9; ++i) {
    const double b = normal_quantile(static_cast<double>(i) / 9.0);
    const BitVec lo = q.quantize({b - 1e-9});
    const BitVec hi = q.quantize({b + 1e-9});
    EXPECT_EQ(lo.hamming_distance(hi), 1u) << i;
  }
}

TEST(SeedQuantizerTest, CalibratedModeEqualizesOccupancy) {
  TinySetup& ts = tiny_setup();
  WaveKeyConfig cfg;
  const SeedQuantizer q = SeedQuantizer::calibrated(ts.encoders, ts.dataset, cfg);
  // Occupancy over the calibration set must be within ~2x of uniform for
  // every (dim, bin).
  std::vector<std::vector<std::size_t>> counts(12, std::vector<std::size_t>(9, 0));
  for (std::size_t i = 0; i < ts.dataset.size(); ++i) {
    const auto f = ts.encoders.imu_features(ts.dataset.sample(i).imu);
    for (std::size_t d = 0; d < 12; ++d) counts[d][q.bin_of(d, f[d])]++;
  }
  const double expected = static_cast<double>(ts.dataset.size()) / 9.0;
  for (std::size_t d = 0; d < 12; ++d)
    for (std::size_t b = 0; b < 9; ++b)
      EXPECT_LT(std::abs(counts[d][b] - expected), expected * 1.6) << d << "," << b;
}

TEST(SeedQuantizerTest, SaveLoadRoundTrip) {
  WaveKeyConfig cfg;
  const SeedQuantizer q = SeedQuantizer::from_normal(cfg);
  std::stringstream ss;
  q.save(ss);
  const SeedQuantizer loaded = SeedQuantizer::load(ss);
  EXPECT_EQ(loaded.latent_dim(), q.latent_dim());
  EXPECT_EQ(loaded.num_bins(), q.num_bins());
  std::vector<double> f(12, 0.3);
  EXPECT_EQ(loaded.quantize(f), q.quantize(f));
}

TEST(SeedQuantizerTest, QuantizeValidatesLength) {
  WaveKeyConfig cfg;
  const SeedQuantizer q = SeedQuantizer::from_normal(cfg);
  EXPECT_THROW(q.quantize(std::vector<double>(5, 0.0)), std::invalid_argument);
}

TEST(KeySeedTest, CalibrationSetsEtaAtP99) {
  TinySetup& ts = tiny_setup();
  WaveKeyConfig cfg;
  const SeedQuantizer q = SeedQuantizer::calibrated(ts.encoders, ts.dataset, cfg);
  const EtaCalibration cal = calibrate_eta(ts.encoders, ts.dataset, q);
  EXPECT_GT(cal.eta, 0.0);
  EXPECT_LE(cal.eta, 1.0);
  if (cal.capped) {
    // The security cap takes precedence over covering the 99th percentile:
    // eta sits at the cap and the calibration reports the clamp.
    EXPECT_DOUBLE_EQ(cal.eta, 0.25);
    EXPECT_GT(cal.p99_mismatch, cal.eta);
  } else {
    EXPECT_GE(cal.eta, cal.p99_mismatch - 1e-12);
  }
  EXPECT_EQ(cal.samples, ts.dataset.size());
  EXPECT_LE(cal.mean_mismatch, cal.p99_mismatch + 1e-12);
}

TEST(KeySeedTest, RandomGuessRateMatchesEquationFour) {
  // eta = 0 -> only the exact seed: 1/2^ls.
  EXPECT_NEAR(random_guess_success_rate(10, 0.0), 1.0 / 1024.0, 1e-12);
  // eta tolerating 1 bit: (1 + 10)/2^10.
  EXPECT_NEAR(random_guess_success_rate(10, 0.1), 11.0 / 1024.0, 1e-12);
  // Monotone in eta.
  EXPECT_LT(random_guess_success_rate(48, 0.05), random_guess_success_rate(48, 0.2));
  // Paper's quoted configuration order of magnitude (l_s=38, eta=0.04).
  EXPECT_LT(random_guess_success_rate(38, 0.04), 1e-8);
}

TEST(PairingTest, ProducesSeedsOnEasyScenario) {
  TinySetup& ts = tiny_setup();
  WaveKeyConfig cfg;
  const SeedQuantizer q = SeedQuantizer::calibrated(ts.encoders, ts.dataset, cfg);
  sim::ScenarioConfig sc;
  sc.distance_m = 2.0;
  sc.gesture.active_s = 4.0;
  const auto r = simulate_seed_pair(ts.encoders, q, cfg, sc, 1234);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->mobile_seed.size(), 48u);
  EXPECT_EQ(r->server_seed.size(), 48u);
  EXPECT_GE(r->mismatch, 0.0);
  EXPECT_LE(r->mismatch, 1.0);
}

TEST(SystemTest, EndToEndKeyEstablishment) {
  TinySetup& ts = tiny_setup();
  std::stringstream ss;
  ts.encoders.save(ss);
  Rng rng(4);
  EncoderPair copy(12, rng);
  copy.load(ss);

  WaveKeySystem system(std::move(copy), WaveKeyConfig{});
  // This test exercises the plumbing with a deliberately weak tiny model;
  // lift the security cap so calibration tracks the model's actual noise.
  system.config().eta_security_cap = 0.6;
  const EtaCalibration cal = system.calibrate(ts.dataset);
  EXPECT_DOUBLE_EQ(system.config().eta, cal.eta);

  sim::ScenarioConfig sc;
  sc.distance_m = 2.0;
  sc.gesture.active_s = 4.0;
  // The tiny model's absolute quality is irrelevant here; what must hold is
  // the *mechanism*: a session succeeds exactly when its seed mismatch is
  // within the calibrated eta budget (segment-exact, see recover_key).
  int attempts = 0, consistent = 0;
  bool saw_success_shape = false;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const WaveKeyOutcome out = system.establish_key(sc, seed * 7919 + 3);
    if (!out.pipelines_ok) continue;
    ++attempts;
    const bool should_succeed = out.seed_mismatch <= system.config().eta + 1e-12;
    if (should_succeed == out.success) ++consistent;
    if (out.success) {
      saw_success_shape = true;
      EXPECT_EQ(out.key.size(), system.config().key_bits);
      EXPECT_GT(out.elapsed_s, system.config().gesture_window_s);
    }
  }
  ASSERT_GT(attempts, 8);
  EXPECT_EQ(consistent, attempts);

  // Exercise the success path deterministically: with a permissive eta the
  // tiny model's sessions must reconcile and produce matching keys.
  if (!saw_success_shape) {
    system.config().eta = 0.5;
    const WaveKeyOutcome out = system.establish_key(sc, 31);
    ASSERT_TRUE(out.pipelines_ok);
    EXPECT_TRUE(out.success || out.seed_mismatch > 0.5);
    if (out.success) {
      EXPECT_EQ(out.key.size(), system.config().key_bits);
    }
  }
}

TEST(SystemTest, TamperedChannelFailsEstablishment) {
  TinySetup& ts = tiny_setup();
  std::stringstream ss;
  ts.encoders.save(ss);
  Rng rng(5);
  EncoderPair copy(12, rng);
  copy.load(ss);
  WaveKeySystem system(std::move(copy), WaveKeyConfig{});
  system.calibrate(ts.dataset);

  sim::ScenarioConfig sc;
  sc.distance_m = 2.0;
  sc.gesture.active_s = 4.0;
  const protocol::Interceptor dropper = [](protocol::InFlightMessage& msg) -> double {
    return msg.type == protocol::MessageType::kMsgE ? -1.0 : 0.0;
  };
  const WaveKeyOutcome out = system.establish_key(sc, 42, dropper);
  EXPECT_FALSE(out.success);
}

TEST(ModelStoreTest, SaveLoadRoundTrip) {
  TinySetup& ts = tiny_setup();
  std::stringstream ss;
  ts.encoders.save(ss);
  Rng rng(6);
  EncoderPair copy(12, rng);
  copy.load(ss);
  WaveKeySystem system(std::move(copy), WaveKeyConfig{});
  system.calibrate(ts.dataset);
  const double eta = system.config().eta;

  const std::string path = (std::filesystem::temp_directory_path() / "wk_test_model.bin").string();
  save_system(system, path);
  auto loaded = load_system(path, WaveKeyConfig{});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->config().eta, eta);

  // Same features, same seeds.
  const Sample& s = ts.dataset.sample(1);
  const auto seed1 = loaded->quantizer().quantize(loaded->encoders().imu_features(s.imu));
  const auto seed2 = system.quantizer().quantize(system.encoders().imu_features(s.imu));
  EXPECT_EQ(seed1, seed2);

  // Calibrated etas are mismatch ratios k / l_s. A loaded model must
  // tolerate exactly as many mismatched segments, floor(eta * l_s), as the
  // trained one, so eta has to survive the file bit for bit.
  const std::size_t seed_bits = system.config().seed_bits();
  ASSERT_EQ(seed_bits, 48u);
  for (std::size_t k = 1; k <= 12; ++k) {
    system.config().eta = static_cast<double>(k) / static_cast<double>(seed_bits);
    save_system(system, path);
    loaded = load_system(path, WaveKeyConfig{});
    ASSERT_TRUE(loaded.has_value()) << "k=" << k;
    EXPECT_EQ(loaded->config().eta, system.config().eta) << "k=" << k;
    EXPECT_EQ(static_cast<std::size_t>(
                  std::floor(loaded->config().eta * static_cast<double>(seed_bits))),
              k)
        << "k=" << k;
  }
  std::filesystem::remove(path);
}

TEST(ModelStoreTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(load_system("/nonexistent/path/model.bin", WaveKeyConfig{}).has_value());
}

}  // namespace
}  // namespace wavekey::core
