// Pairing stage: single-user key establishment, closed loop on one thread.
//
// Setup simulates a pool of gesture recordings (the simulator is never
// timed as system work), builds deterministically initialised, untrained
// encoders and an empty vault. Each session then runs the system stages on
// one recording: IMU/RFID pipelines -> encoders -> quantize -> OT key
// agreement -> vault install. Untrained encoders give unrelated mobile and
// server latents, so the server seed is the mobile seed with
// 0..floor(eta * l_s) bits flipped (drawn from the seed): reconciliation
// then runs a real Reed-Solomon decode and every session must succeed.
//
// The traced path re-runs a session through the protocol's public phase
// functions in protocol::run_key_agreement's order with the same Drbg
// streams, recording one span per stage; its keys must equal the untraced
// session's keys byte for byte.

#include <cmath>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/encoders.hpp"
#include "core/seed_quantizer.hpp"
#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"
#include "imu/imu_pipeline.hpp"
#include "protocol/key_agreement.hpp"
#include "protocol/session.hpp"
#include "rfid/rfid_pipeline.hpp"
#include "server/access_protocol.hpp"
#include "server/key_vault.hpp"
#include "sim/scenario.hpp"

namespace perfbench {
namespace {

using namespace wavekey;

constexpr std::size_t kRecordings = 24;      ///< distinct recordings cycled through
constexpr std::size_t kWarmupSessions = 8;   ///< untimed, before the loop
constexpr std::size_t kDigestSessions = 16;  ///< re-run to check determinism
constexpr std::uint64_t kWarmupIdBase = 1ull << 40;
constexpr std::size_t kStatWindow = 100;   ///< sessions per window of the p50 and rate metrics
constexpr std::size_t kP99Window = 500;    ///< sessions per window of session_ms_p99

struct Fixture {
  core::WaveKeyConfig wk;
  core::SeedQuantizer quantizer = core::SeedQuantizer::from_normal(wk);
  std::unique_ptr<core::EncoderPair> encoders;
  std::vector<sim::SessionRecording> recordings;
  std::vector<double> record_ms;  ///< simulator cost of each recording
  std::unique_ptr<server::KeyVault> vault;
  imu::ImuPipelineConfig imu_config;
  rfid::RfidPipelineConfig rfid_config;

  protocol::AgreementParams params() const {
    protocol::AgreementParams p;
    p.seed_bits = quantizer.seed_bits();
    p.key_bits = wk.key_bits;
    p.eta = wk.eta;
    return p;
  }
};

std::unique_ptr<Fixture> build_fixture(std::uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  fx->imu_config.window_s = fx->wk.gesture_window_s;
  fx->rfid_config.window_s = fx->wk.gesture_window_s;
  Rng rng(mix64(seed ^ 0x7061697269ull));
  fx->encoders = std::make_unique<core::EncoderPair>(fx->wk.latent_dim, rng);

  // Recordings whose pipelines reject them are redrawn: every timed
  // session must be able to succeed.
  for (std::size_t attempt = 0; fx->recordings.size() < kRecordings; ++attempt) {
    if (attempt > 8 * kRecordings) throw std::runtime_error("pairing: too many rejected recordings");
    sim::ScenarioConfig scenario;
    scenario.volunteer = sim::VolunteerStyle::sample(rng);
    scenario.gesture.active_s = 3.5;
    scenario.distance_m = rng.uniform(2.0, 6.0);
    const std::uint64_t t0 = now_ns();
    sim::SessionRecording rec = sim::ScenarioSimulator(scenario, rng.next()).run();
    fx->record_ms.push_back(ns_to_ms(static_cast<double>(now_ns() - t0)));
    if (imu::process_imu(rec.imu, fx->imu_config) && rfid::process_rfid(rec.rfid, fx->rfid_config))
      fx->recordings.push_back(std::move(rec));
  }

  server::VaultConfig vc;
  vc.capacity = 1u << 16;
  vc.ttl_s = 1e6;
  fx->vault = std::make_unique<server::KeyVault>(vc);
  return fx;
}

/// Everything a session consumes, derived from (run seed, session index).
struct SessionInput {
  std::uint64_t id = 0;
  const sim::SessionRecording* recording = nullptr;
  std::uint64_t mobile_drbg = 0;
  std::uint64_t server_drbg = 0;
  std::vector<std::size_t> flips;  ///< server-seed bit positions to flip
};

SessionInput make_input(const Fixture& fx, std::uint64_t seed, std::uint64_t id) {
  Rng rng(mix64(seed * 0x100000001B3ull + id));
  SessionInput in;
  in.id = id;
  in.recording = &fx.recordings[rng.uniform_u64(fx.recordings.size())];
  in.mobile_drbg = rng.next();
  in.server_drbg = rng.next();
  const protocol::AgreementParams p = fx.params();
  const auto max_flips =
      static_cast<std::size_t>(std::floor(p.eta * static_cast<double>(p.seed_bits)));
  std::vector<std::size_t> positions(p.seed_bits);
  for (std::size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  const std::size_t n = rng.uniform_u64(max_flips + 1);
  for (std::size_t i = 0; i < n; ++i) {
    std::swap(positions[i], positions[i + rng.uniform_u64(positions.size() - i)]);
    in.flips.push_back(positions[i]);
  }
  return in;
}

BitVec flipped(BitVec seed, const std::vector<std::size_t>& flips) {
  for (const std::size_t i : flips) seed.set(i, !seed.get(i));
  return seed;
}

struct Keys {
  BitVec mobile;
  BitVec server;
};

struct Untraced {
  protocol::SessionResult result;
  std::uint64_t wall_ns = 0;
};

/// One session through protocol::run_key_agreement, timed as a whole.
Untraced run_untraced(Fixture& fx, const SessionInput& in, double now_s) {
  using protocol::SessionConfig;
  const sim::SessionRecording& rec = *in.recording;
  const std::uint64_t t0 = now_ns();
  const auto imu_out = imu::process_imu(rec.imu, fx.imu_config);
  const std::uint64_t t1 = now_ns();
  const auto rfid_out = rfid::process_rfid(rec.rfid, fx.rfid_config);
  const std::uint64_t t2 = now_ns();
  if (!imu_out || !rfid_out) throw std::runtime_error("pairing: pipeline rejected a recording");
  const core::Sample sample =
      core::WaveKeyDataset::make_sample(imu_out->linear_accel, rfid_out->processed, fx.wk);
  const std::uint64_t t3 = now_ns();
  const std::vector<double> f_m = fx.encoders->imu_features(sample.imu);
  const std::uint64_t t4 = now_ns();
  const std::vector<double> f_r = fx.encoders->rfid_features(sample.rfid);
  const std::uint64_t t5 = now_ns();
  const BitVec seed_m = fx.quantizer.quantize(f_m);
  const std::uint64_t t6 = now_ns();
  const BitVec seed_r_own = fx.quantizer.quantize(f_r);
  const std::uint64_t t7 = now_ns();
  (void)seed_r_own;  // the server's own seed is paid for, then replaced (see header)

  SessionConfig config;
  config.params = fx.params();
  config.gesture_window_s = fx.wk.gesture_window_s;
  config.tau_s = fx.wk.tau_s;
  const auto s = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a) / 1e9; };
  const double shared = s(t2, t3) / 2;  // make_sample converts both parties' windows
  config.mobile_compute_s = s(t0, t1) + shared + s(t3, t4) + s(t5, t6);
  config.server_compute_s = s(t1, t2) + shared + s(t4, t5) + s(t6, t7);

  crypto::Drbg mobile_rng(in.mobile_drbg);
  crypto::Drbg server_rng(in.server_drbg);
  Untraced out;
  out.result = protocol::run_key_agreement(config, seed_m, flipped(seed_m, in.flips), mobile_rng,
                                           server_rng);
  if (out.result.success) fx.vault->install(in.id, out.result.server_key, now_s);
  out.wall_ns = now_ns() - t0;
  return out;
}

struct Traced {
  std::optional<Keys> keys;
  std::size_t errors_corrected = 0;  ///< RS symbol errors between K_R and K_M
};

/// The same session, stage by stage, with one span per stage.
Traced run_traced(Fixture& fx, const SessionInput& in, double now_s, Tracer& tr) {
  using namespace protocol;
  const std::uint64_t id = in.id;
  const sim::SessionRecording& rec = *in.recording;
  Traced out;
  BitVec key_r;
  std::optional<BitVec> recovered;
  {
    Tracer::Scope root(tr, "pairing.session", id);
    std::optional<imu::ImuPipelineResult> imu_out;
    std::optional<rfid::RfidPipelineResult> rfid_out;
    {
      Tracer::Scope s(tr, "imu.process", id);
      imu_out = imu::process_imu(rec.imu, fx.imu_config);
    }
    {
      Tracer::Scope s(tr, "rfid.process", id);
      rfid_out = rfid::process_rfid(rec.rfid, fx.rfid_config);
    }
    if (!imu_out || !rfid_out) throw std::runtime_error("pairing: pipeline rejected a recording");
    std::optional<core::Sample> sample;
    {
      Tracer::Scope s(tr, "core.make_sample", id);
      sample = core::WaveKeyDataset::make_sample(imu_out->linear_accel, rfid_out->processed, fx.wk);
    }
    std::vector<double> f_m, f_r;
    {
      Tracer::Scope s(tr, "nn.imu_encode", id);
      f_m = fx.encoders->imu_features(sample->imu);
    }
    {
      Tracer::Scope s(tr, "nn.rf_encode", id);
      f_r = fx.encoders->rfid_features(sample->rfid);
    }
    BitVec seed_m, seed_r_own;
    {
      Tracer::Scope s(tr, "core.quantize", id);
      seed_m = fx.quantizer.quantize(f_m);
    }
    {
      Tracer::Scope s(tr, "core.quantize", id);
      seed_r_own = fx.quantizer.quantize(f_r);
    }
    const BitVec seed_r = flipped(seed_m, in.flips);
    const AgreementParams params = fx.params();
    crypto::Drbg mobile_rng(in.mobile_drbg);
    crypto::Drbg server_rng(in.server_drbg);

    // Phase 1: batched OT first messages.
    std::optional<PadSender> mobile_sender, server_sender;
    Bytes msg_a_m, msg_a_r;
    {
      Tracer::Scope s(tr, "crypto.ot_sender.mobile", id);
      mobile_sender.emplace(params, mobile_rng);
      msg_a_m = mobile_sender->message_a();
    }
    {
      Tracer::Scope s(tr, "crypto.ot_sender.server", id);
      server_sender.emplace(params, server_rng);
      msg_a_r = server_sender->message_a();
    }
    // Phase 2: OT responses, choices = own seed bits.
    std::optional<PadReceiver> mobile_receiver, server_receiver;
    Bytes msg_b_m, msg_b_r;
    {
      Tracer::Scope s(tr, "crypto.ot_receiver.mobile", id);
      mobile_receiver.emplace(params, seed_m, msg_a_r, mobile_rng);
      msg_b_m = mobile_receiver->message_b();
    }
    {
      Tracer::Scope s(tr, "crypto.ot_receiver.server", id);
      server_receiver.emplace(params, seed_r, msg_a_m, server_rng);
      msg_b_r = server_receiver->message_b();
    }
    // Phase 3: ciphertext pairs.
    Bytes msg_e_m, msg_e_r;
    {
      Tracer::Scope s(tr, "crypto.ot_cipher.mobile", id);
      msg_e_m = mobile_sender->make_cipher_message(msg_b_r, mobile_rng);
    }
    {
      Tracer::Scope s(tr, "crypto.ot_cipher.server", id);
      msg_e_r = server_sender->make_cipher_message(msg_b_m, server_rng);
    }
    // Phase 4: preliminary keys.
    BitVec key_m;
    {
      Tracer::Scope s(tr, "crypto.ot_receive_pads.mobile", id);
      const std::vector<BitVec> pads = mobile_receiver->receive_pads(msg_e_r);
      key_m = assemble_preliminary_key(params, seed_m, *mobile_sender, pads, /*own_first=*/true);
    }
    {
      Tracer::Scope s(tr, "crypto.ot_receive_pads.server", id);
      const std::vector<BitVec> pads = server_receiver->receive_pads(msg_e_m);
      key_r = assemble_preliminary_key(params, seed_r, *server_sender, pads, /*own_first=*/false);
    }
    // Phase 5: reconciliation.
    std::optional<Challenge> challenge, server_challenge;
    Bytes challenge_wire;
    {
      Tracer::Scope s(tr, "ecc.commit", id);
      challenge = make_challenge(params, key_m, mobile_rng);
      challenge_wire = challenge->serialize();
    }
    {
      Tracer::Scope s(tr, "ecc.recover", id);
      server_challenge = Challenge::parse(params, challenge_wire);
      recovered = recover_key(params, *server_challenge, key_r);
    }
    if (!recovered) return out;
    // Phase 6: HMAC confirmation.
    bool confirmed = false;
    {
      Tracer::Scope s(tr, "crypto.confirm", id);
      const Bytes response = make_response(*server_challenge, *recovered);
      confirmed = verify_response(*challenge, key_m, response);
    }
    if (!confirmed) return out;
    Keys keys{finalize_key(params, key_m), finalize_key(params, *recovered)};
    {
      Tracer::Scope s(tr, "server.vault_install", id);
      fx.vault->install(id, keys.server, now_s);
    }
    out.keys = std::move(keys);
  }
  const auto a = key_r.to_bytes();
  const auto b = recovered->to_bytes();
  for (std::size_t i = 0; i < a.size(); ++i) out.errors_corrected += a[i] != b[i];
  return out;
}

/// A fresh access request under the installed key must be granted.
bool installed_key_grants(server::KeyVault& vault, std::uint64_t id, const BitVec& key,
                          double now_s) {
  const auto key_bytes = key.to_bytes();
  const server::AccessRequest req =
      server::make_access_request(id, 0, 1, {}, {0x50, 0x42}, key_bytes);
  return vault.authorize(req, req.mac_input(), now_s, nullptr) == server::AccessStatus::kGranted;
}

// Span names of the system stages, in pipeline order, with their metric names.
struct StageSpan {
  const char* span;
  const char* metric;
};
constexpr StageSpan kStages[] = {
    {"imu.process", "imu.process_us"},
    {"rfid.process", "rfid.process_us"},
    {"core.make_sample", "core.make_sample_us"},
    {"nn.imu_encode", "nn.imu_encode_us"},
    {"nn.rf_encode", "nn.rf_encode_us"},
    {"core.quantize", "core.quantize_us"},
    {"crypto.ot_sender.mobile", "crypto.ot_sender_us.mobile"},
    {"crypto.ot_sender.server", "crypto.ot_sender_us.server"},
    {"crypto.ot_receiver.mobile", "crypto.ot_receiver_us.mobile"},
    {"crypto.ot_receiver.server", "crypto.ot_receiver_us.server"},
    {"crypto.ot_cipher.mobile", "crypto.ot_cipher_us.mobile"},
    {"crypto.ot_cipher.server", "crypto.ot_cipher_us.server"},
    {"crypto.ot_receive_pads.mobile", "crypto.ot_receive_pads_us.mobile"},
    {"crypto.ot_receive_pads.server", "crypto.ot_receive_pads_us.server"},
    {"ecc.commit", "ecc.commit_us"},
    {"ecc.recover", "ecc.recover_us"},
    {"crypto.confirm", "crypto.confirm_us"},
    {"server.vault_install", "server.vault_install_us"},
};

class PairingStage final : public Stage {
 public:
  PairingStage(const Options& opt, Tracer& tracer, std::vector<double>& setup_s)
      : opt_(opt), tracer_(tracer) {
    for (std::size_t r = 0; r < setup_s.size(); ++r) {
      fx_.reset();
      const std::uint64_t t0 = now_ns();
      fx_ = build_fixture(opt.seed);
      setup_s[r] += static_cast<double>(now_ns() - t0) / 1e9;
    }
    stage_start_ = now_ns();
    for (std::size_t w = 0; w < kWarmupSessions; ++w)
      run_untraced(*fx_, make_input(*fx_, opt_.seed, kWarmupIdBase + w), vault_now());
  }

  void run_slice(double seconds) override {
    const auto budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t slice_start = now_ns();
    std::uint64_t last = slice_start;
    while (last - slice_start < budget_ns) {
      const std::uint64_t id = sessions_++;
      const SessionInput in = make_input(*fx_, opt_.seed, id);
      // In a traced run every session also runs through the traced driver,
      // alternating which goes first.
      const bool traced_first = opt_.trace && (id % 2 == 1);
      Traced traced;
      if (traced_first) traced = run_traced(*fx_, in, vault_now(), tracer_);
      const Untraced u = run_untraced(*fx_, in, vault_now());
      if (opt_.trace && !traced_first) traced = run_traced(*fx_, in, vault_now(), tracer_);

      const protocol::SessionResult& res = u.result;
      bool ok = res.success && res.mobile_key == res.server_key &&
                installed_key_grants(*fx_->vault, id, res.server_key, vault_now());
      if (opt_.trace) {
        const bool identical = traced.keys && traced.keys->mobile == res.mobile_key &&
                               traced.keys->server == res.server_key;
        key_mismatches_ += !identical;
        ok = ok && identical;
        errors_.push_back(static_cast<double>(traced.errors_corrected));
      }
      failed_ += !ok;
      const std::uint64_t now = now_ns();
      iteration_s_.push_back(static_cast<double>(now - last) / 1e9);
      last = now;
      if (!ok) continue;
      session_ms_.push_back(ns_to_ms(static_cast<double>(u.wall_ns)));
      key_ready_ms_.push_back((res.elapsed_s - fx_->wk.gesture_window_s) * 1e3);
      critical_ms_.push_back((res.critical_arrival_s - fx_->wk.gesture_window_s) * 1e3);
      if (id < kDigestSessions) digest_.update(res.mobile_key.to_bytes());
    }
  }

  void finish(Report& report) override {
    report.attempts(sessions_, failed_);
    report.check(failed_ == 0, "pairing: every session agrees on a key that opens the vault");

    // Determinism: the first sessions, re-run on the same inputs, reproduce
    // the same keys.
    crypto::Sha256 again;
    for (std::uint64_t id = 0; id < kDigestSessions && id < sessions_; ++id) {
      const Untraced u = run_untraced(*fx_, make_input(*fx_, opt_.seed, id), vault_now());
      again.update(u.result.mobile_key.to_bytes());
    }
    const crypto::Digest256 digest = digest_.finalize();
    report.check(digest == again.finalize(), "pairing: key digest reproduces on equal seeds");
    std::printf("pairing key digest (first %zu sessions): ", kDigestSessions);
    for (const auto byte : digest) std::printf("%02x", byte);
    std::printf("\n");
    report.check(sessions_ >= kDigestSessions, "pairing: ran at least the digest sessions");
    report.check(key_mismatches_ == 0, "pairing: traced keys equal run_key_agreement keys");
    double critical_max = 0.0;
    for (const double c : critical_ms_) critical_max = std::max(critical_max, c);
    report.check(critical_max <= fx_->wk.tau_s * 1e3, "pairing: critical messages within tau");

    // session_ms_p99 is wall time, so a stall of the host makes it; it is
    // taken per kP99Window sessions, lower quartile over windows.
    const double session_p99 = windowed_quantile(session_ms_, kP99Window, 0.99, 0.25);
    if (!opt_.trace) {
      // critical_ms_p99 takes the whole run: it is mostly virtual radio time.
      report.metric("key_ready_ms_p50", windowed_quantile(key_ready_ms_, kStatWindow, 0.5, 0.25),
                    "ms");
      report.metric("critical_ms_p99", quantile(critical_ms_, 0.99), "ms");
      // Printed, not reported: the shared VM this benchmark was built on
      // switched speed for minutes at a time, and across ten seeds the
      // spread of session_ms_p50 reached 0.25-0.54 of its median and that
      // of session_ms_p99 0.34-0.50, wider than any allowed bound.
      // key_ready_ms_p50 carries the same measured compute, diluted by
      // virtual radio time. Traced runs report both as pairing.session_ms_*.
      std::printf("session_ms_p50 %.4f ms\nsession_ms_p99 %.4f ms\n",
                  windowed_quantile(session_ms_, kStatWindow, 0.5, 0.25), session_p99);
      // Closed-loop throughput is 1 / the mean session time, so it adds no
      // information to session_ms_p50 and only its noise to the gate: it is
      // printed, not reported.
      std::printf("sessions_per_s %.1f 1/s (closed loop, one thread)\n",
                  windowed_rate(iteration_s_, kStatWindow, 0.75));
      return;
    }

    // Stage self times and untraced sessions alternate session by session,
    // so plain medians of both see the same host.
    const double session_p50 = quantile(session_ms_, 0.5);
    report.metric("sim.record_ms", quantile(fx_->record_ms, 0.5), "ms");
    std::vector<double> stage_us;
    for (const StageSpan& st : kStages) {
      stage_us.push_back(ns_to_us(quantile(tracer_.per_session_self_ns(st.span), 0.5)));
      report.metric(st.metric, stage_us.back(), "us");
    }
    report.metric("ecc.errors_corrected", mean(errors_), "count/session");
    double stage_sum_us = 0.0;
    for (std::size_t i = 0; i < stage_us.size(); ++i) {
      stage_sum_us += stage_us[i];
      report.metric(std::string("pairing.share.") + kStages[i].span,
                    100.0 * stage_us[i] / (session_p50 * 1e3), "%");
    }
    const double traced_p50_ms =
        ns_to_ms(quantile(tracer_.span_durations_ns("pairing.session"), 0.5));
    report.metric("pairing.session_ms_p50", session_p50, "ms");
    report.metric("pairing.session_ms_p99", session_p99, "ms");
    report.metric("pairing.stage_sum_pct", 100.0 * stage_sum_us / (session_p50 * 1e3), "%");
    report.metric("pairing.trace_overhead_pct", 100.0 * (traced_p50_ms / session_p50 - 1.0), "%");
    report.check(std::abs(stage_sum_us / (session_p50 * 1e3) - 1.0) <= 0.05,
                 "pairing: stage self times sum to session_ms_p50 within 5%");

    // The per-stage share table that picks the next optimization target.
    std::printf("pairing stage shares of session_ms_p50 = %.4f ms (simulator excluded):\n",
                session_p50);
    for (std::size_t i = 0; i < stage_us.size(); ++i)
      std::printf("  %-32s %10.2f us  %6.2f %%\n", kStages[i].span, stage_us[i],
                  100.0 * stage_us[i] / (session_p50 * 1e3));
  }

 private:
  double vault_now() const { return static_cast<double>(now_ns() - stage_start_) / 1e9; }

  const Options& opt_;
  Tracer& tracer_;
  std::unique_ptr<Fixture> fx_;
  std::uint64_t stage_start_ = 0;
  std::uint64_t sessions_ = 0, failed_ = 0, key_mismatches_ = 0;
  std::vector<double> session_ms_, key_ready_ms_, critical_ms_, errors_, iteration_s_;
  crypto::Sha256 digest_;
};

}  // namespace

std::unique_ptr<Stage> make_pairing(const Options& opt, Tracer& tracer,
                                    std::vector<double>& setup_s) {
  return std::make_unique<PairingStage>(opt, tracer, setup_s);
}

}  // namespace perfbench
