// Tests of core::PairingEngine — concurrent key establishment as coroutines
// behind a bounded admission window — plus the end-to-end determinism
// contract of training: the same corpus trains the same weight bytes every
// run, and those bytes match a digest pinned per SIMD tier.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/encoders.hpp"
#include "core/pairing_engine.hpp"
#include "core/seed_quantizer.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "numeric/rng.hpp"
#include "protocol/session.hpp"
#include "runtime/cpu.hpp"

using namespace wavekey;
using namespace wavekey::core;

namespace {

PairingRequest make_request(const SeedQuantizer& quantizer, std::uint64_t id) {
  Rng rng(id * 6151 + 29);
  PairingRequest req;
  req.id = id;
  req.rng_seed = id * 7919 + 17;
  req.mobile_latent.resize(quantizer.latent_dim());
  req.server_latent.resize(quantizer.latent_dim());
  for (std::size_t d = 0; d < quantizer.latent_dim(); ++d) {
    req.mobile_latent[d] = rng.normal();
    req.server_latent[d] = req.mobile_latent[d] + rng.normal(0.0, 0.02);
  }
  return req;
}

std::vector<PairingReport> run_batch(const SeedQuantizer& quantizer,
                                     const PairingEngineConfig& config, std::size_t sessions) {
  PairingEngine engine(quantizer, config);
  for (std::size_t i = 0; i < sessions; ++i)
    EXPECT_TRUE(engine.submit(make_request(quantizer, i)));
  return engine.finish();
}

}  // namespace

TEST(PairingEngine, ConcurrentSessionsAllEstablishKeys) {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig config;
  config.threads = 4;
  config.queue_capacity = 8;
  const std::vector<PairingReport> reports = run_batch(quantizer, config, 12);

  ASSERT_EQ(reports.size(), 12u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].id, i);  // finish() sorts by request id
    EXPECT_TRUE(reports[i].success) << "session " << i << ": " << reports[i].error;
    EXPECT_EQ(reports[i].key.size(), wk.key_bits);
    EXPECT_FALSE(reports[i].tau_violation);
    EXPECT_LE(reports[i].critical_latency_s, wk.tau_s);
    EXPECT_GE(reports[i].queue_wait_s, 0.0);
    EXPECT_GT(reports[i].service_s, 0.0);
  }
}

TEST(PairingEngine, MatchesDirectKeyAgreement) {
  // The engine must be a pure scheduler: each session's key equals what a
  // direct single-threaded run_key_agreement produces from the same seeds.
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig config;
  config.threads = 1;
  const std::vector<PairingReport> reports = run_batch(quantizer, config, 4);

  for (const PairingReport& report : reports) {
    const PairingRequest req = make_request(quantizer, report.id);
    protocol::SessionConfig session = config.session;
    session.params.seed_bits = quantizer.seed_bits();
    crypto::Drbg mobile_rng(req.rng_seed ^ 0xAB1Eull);
    crypto::Drbg server_rng(req.rng_seed ^ 0x5E44ull);
    const protocol::SessionResult direct = protocol::run_key_agreement(
        session, quantizer.quantize(req.mobile_latent), quantizer.quantize(req.server_latent),
        mobile_rng, server_rng);
    ASSERT_TRUE(direct.success);
    ASSERT_TRUE(report.success);
    EXPECT_EQ(report.key.to_string(), direct.mobile_key.to_string());
  }
}

TEST(PairingEngine, DeterministicAcrossRunsAndThreadCounts) {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig serial;
  serial.threads = 1;
  PairingEngineConfig wide;
  wide.threads = 4;
  const auto a = run_batch(quantizer, serial, 8);
  const auto b = run_batch(quantizer, wide, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].success, b[i].success);
    EXPECT_EQ(a[i].key.to_string(), b[i].key.to_string())
        << "keys must not depend on scheduling (session " << i << ")";
  }
}

TEST(PairingEngine, BadLatentLengthYieldsFailureReport) {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig config;
  config.threads = 2;
  PairingEngine engine(quantizer, config);
  PairingRequest good = make_request(quantizer, 0);
  PairingRequest bad = make_request(quantizer, 1);
  bad.mobile_latent.resize(quantizer.latent_dim() + 3);  // wrong length
  EXPECT_TRUE(engine.submit(std::move(good)));
  EXPECT_TRUE(engine.submit(std::move(bad)));
  const auto reports = engine.finish();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].success);
  EXPECT_FALSE(reports[1].success);
  EXPECT_FALSE(reports[1].error.empty());
}

TEST(PairingEngine, TinyQueueStillCompletesEverySession) {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig config;
  config.threads = 2;
  config.queue_capacity = 1;  // submit() must block, never drop
  const auto reports = run_batch(quantizer, config, 10);
  ASSERT_EQ(reports.size(), 10u);
  for (const auto& r : reports) EXPECT_TRUE(r.success) << r.error;
}

TEST(PairingEngine, SubmitAfterFinishIsRejected) {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngine engine(quantizer, PairingEngineConfig{});
  engine.finish();
  EXPECT_FALSE(engine.submit(make_request(quantizer, 0)));
}

TEST(PairingEngine, NonStdExceptionFailsOnlyThatSession) {
  // A callback throwing something that is not a std::exception must fail
  // only its own session and still release the admission slot: with one
  // worker and a window of one, a leaked slot would block the next submit()
  // forever.
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig config;
  config.threads = 1;
  config.queue_capacity = 1;
  config.on_established = [](std::uint64_t id, const BitVec&) {
    if (id == 1) throw 7;
  };
  const auto reports = run_batch(quantizer, config, 4);
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& r : reports) {
    if (r.id == 1) {
      EXPECT_FALSE(r.success);
      EXPECT_FALSE(r.error.empty());
    } else {
      EXPECT_TRUE(r.success) << "session " << r.id << ": " << r.error;
    }
  }
}

TEST(PairingEngine, RadioWaitsOverlapOnOneThread) {
  // A session parked on the radio must not hold the only worker: all eight
  // start within a small fraction of one wait. Serialized waits would make
  // the last session queue for 7 x 200 ms.
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  PairingEngineConfig config;
  config.threads = 1;
  config.radio_wait_s = 0.2;
  const auto reports = run_batch(quantizer, config, 8);
  ASSERT_EQ(reports.size(), 8u);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.success) << r.error;
    EXPECT_LT(r.queue_wait_s, config.radio_wait_s) << "session " << r.id;
    EXPECT_GT(r.service_s, 0.9 * config.radio_wait_s);  // the wait did happen
  }
}

namespace {

// Trains a fresh encoder pair on a tiny corpus and returns the serialized
// weight bytes — the strictest possible equality witness.
std::string trained_weight_bytes(const WaveKeyDataset& dataset) {
  WaveKeyConfig wk;
  Rng rng(42);
  EncoderPair encoders(wk.latent_dim, rng);
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 4;  // the tiny corpus must still fill whole minibatches
  encoders.train(dataset, tc);
  std::ostringstream os;
  encoders.save(os);
  return os.str();
}

const WaveKeyDataset& tiny_corpus() {
  static const WaveKeyDataset dataset = [] {
    DatasetConfig dc;
    dc.volunteers = 1;
    dc.devices = 1;
    dc.gestures_per_pair = 2;
    dc.windows_per_gesture = 4;
    dc.gesture_active_s = 8.0;
    return WaveKeyDataset::generate(dc);
  }();
  return dataset;
}

std::string sha256_hex(const std::string& bytes) {
  const crypto::Digest256 d = crypto::Sha256::hash(
      {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  std::string hex;
  char buf[3];
  for (const std::uint8_t b : d) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    hex += buf;
  }
  return hex;
}

}  // namespace

TEST(TrainingDeterminism, SerialTrainingIsReproducible) {
  ASSERT_GT(tiny_corpus().size(), 0u);
  EXPECT_EQ(trained_weight_bytes(tiny_corpus()), trained_weight_bytes(tiny_corpus()))
      << "training the same corpus twice must produce the same weight bytes";
}

// Golden digests of the tiny-corpus weight bytes, one per SIMD tier (the
// AVX2 GEMM kernels fuse multiply-adds, so the tiers round differently).
// They pin the reduction order: any change to how a layer accumulates its
// gradients — across samples or within a GEMM — moves them. They were taken
// with GCC 12 and glibc's libm; another toolchain may round differently.
// They hold in every build type: the AVX2 kernels' TU is built with
// -ffp-contract=off, so the optimization level cannot fuse extra
// multiply-adds (src/nn/CMakeLists.txt).
TEST(TrainingDeterminism, SerialTrainingMatchesGoldenDigest) {
  using runtime::cpu::SimdTier;
  struct Golden {
    SimdTier tier;
    const char* digest;
  };
  const Golden goldens[] = {
      {SimdTier::kScalar, "f3a8b57eb9d7b94f1a8df6108d3a85322e81a3b20196126a6ee236ef3dc584b1"},
      {SimdTier::kAvx2, "91a43f69b2f42aa52c7f17dcc469f846d884c894007bb5f068c0f5096e7f802b"},
  };
  for (const Golden& g : goldens) {
    if (g.tier > runtime::cpu::detected_tier()) continue;  // tier absent on this host
    runtime::cpu::force_tier_for_testing(g.tier);
    EXPECT_EQ(sha256_hex(trained_weight_bytes(tiny_corpus())), g.digest)
        << "tier " << runtime::cpu::tier_name(g.tier);
    runtime::cpu::force_tier_for_testing(std::nullopt);
  }
}
