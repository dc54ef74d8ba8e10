// Concurrent pairing throughput: sessions/sec and service-latency
// percentiles of core::PairingEngine vs. event-loop thread count. Emits a
// JSON curve (one object per thread count) plus the 4-thread-over-1-thread
// speedup (CPU scaling, reported but not gated) and the total count of
// tau-deadline violations (must stay zero).
//
// Sessions are synthetic — SeedQuantizer::from_normal bins standard-normal
// latents, and the server latent is the mobile latent plus small Gaussian
// noise, so the seed mismatch sits far below eta and every session succeeds
// deterministically; no trained model is needed, keeping the bench CI-cheap.
//
// Each session spends `radio_wait_ms` suspended in emulated radio I/O (BLE
// connection-interval round-trips between the phone and the reader). The
// engine parks those waits in the event loop's timer wheel, so they overlap
// at every thread count, one included. Each point reports that overlap as
// `io_overlap` = sessions * radio_wait / wall (how many waits were in flight
// at once on average), and the bench fails if any point is below 2.5 — the
// same rule bench_server applies to its actuation waits (DESIGN.md §9.4).
// Real crypto cost is still charged into each session's virtual clock by
// the protocol layer, so CPU contention between concurrent sessions counts
// against the tau window and would surface as tau violations.
//
// Two further sections cover the cross-session batched encoder stage
// (DESIGN.md §11):
//
//  * "encoder_stage" — raw-tensor encode throughput through a shared
//    core::BatchedEncoderService, batched (max_batch = thread count) vs
//    unbatched (max_batch = 1, same service/queue/wake path, so the
//    comparison isolates coalescing) at each thread count. Arms are
//    interleaved across repetitions and the median sessions/sec per arm is
//    reported, damping scheduler noise on shared hosts. Gate: the batched
//    arm must reach >= 2x the unbatched arm at 8 threads.
//  * "batched_integration" — full PairingEngine sessions submitting raw
//    sensor tensors through the service (synthetic_residual_sigma makes the
//    untrained latents reconcilable); the coalescing hold time is charged
//    into each session's virtual clock, and the gate requires zero tau
//    violations and universal success despite that charge.
//
// Knobs: WAVEKEY_BENCH_SCALE scales sessions per point (default 1.0);
// WAVEKEY_BENCH_THREADS is a comma-separated thread-count list (default
// "1,2,4,8"); WAVEKEY_RADIO_WAIT_MS overrides the emulated radio wait.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/batched_encoder.hpp"
#include "core/config.hpp"
#include "core/encoders.hpp"
#include "core/pairing_engine.hpp"
#include "core/seed_quantizer.hpp"
#include "nn/tensor.hpp"
#include "numeric/rng.hpp"
#include "runtime/thread_pool.hpp"

using namespace wavekey;
using namespace wavekey::core;

namespace {

int session_count() {
  double scale = 1.0;
  if (const char* env = std::getenv("WAVEKEY_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0) scale = s;
  }
  const int n = static_cast<int>(64 * scale);
  return n < 8 ? 8 : n;
}

std::vector<std::size_t> thread_counts() {
  std::vector<std::size_t> counts;
  if (const char* env = std::getenv("WAVEKEY_BENCH_THREADS")) {
    std::string spec(env);
    std::size_t pos = 0;
    while (pos < spec.size()) {
      const std::size_t comma = spec.find(',', pos);
      const std::string tok = spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
      const long v = std::strtol(tok.c_str(), nullptr, 10);
      if (v > 0) counts.push_back(static_cast<std::size_t>(v));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  if (counts.empty()) counts = {1, 2, 4, 8};
  return counts;
}

double radio_wait_s() {
  if (const char* env = std::getenv("WAVEKEY_RADIO_WAIT_MS")) {
    const double ms = std::atof(env);
    if (ms >= 0.0) return ms / 1000.0;
  }
  return 0.045;  // ~3 BLE connection intervals at 15 ms
}

double percentile_ms(std::vector<double> values_s, double p) {
  if (values_s.empty()) return 0.0;
  std::sort(values_s.begin(), values_s.end());
  const double rank = p * static_cast<double>(values_s.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (idx >= values_s.size()) idx = values_s.size() - 1;
  return values_s[idx] * 1000.0;
}

struct Point {
  std::size_t threads = 0;
  double wall_s = 0.0;
  double sessions_per_sec = 0.0;
  double io_overlap = 0.0;  ///< sessions * radio_wait / wall
  double success_rate = 0.0;
  double p50_service_ms = 0.0;
  double p95_service_ms = 0.0;
  double p99_service_ms = 0.0;
  double p999_service_ms = 0.0;
  double p99_critical_ms = 0.0;
  double p999_critical_ms = 0.0;
  int tau_violations = 0;
};

Point run_point(const SeedQuantizer& quantizer, const WaveKeyConfig& wk, std::size_t threads,
                int sessions) {
  PairingEngineConfig config;
  config.threads = threads;
  config.queue_capacity = 32;
  config.radio_wait_s = radio_wait_s();
  config.session.tau_s = wk.tau_s;
  config.session.gesture_window_s = wk.gesture_window_s;
  config.session.params.key_bits = wk.key_bits;
  config.session.params.eta = wk.eta;

  // Same request stream at every thread count: deterministic latents and
  // per-session crypto seeds, so the points differ only in scheduling.
  std::vector<PairingRequest> requests;
  requests.reserve(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    Rng rng(static_cast<std::uint64_t>(i) * 6151 + 29);
    PairingRequest req;
    req.id = static_cast<std::uint64_t>(i);
    req.rng_seed = static_cast<std::uint64_t>(i) * 7919 + 17;
    req.mobile_latent.resize(quantizer.latent_dim());
    req.server_latent.resize(quantizer.latent_dim());
    for (std::size_t d = 0; d < quantizer.latent_dim(); ++d) {
      req.mobile_latent[d] = rng.normal();
      // Cross-modal residual far below the eta=0.10 correction budget.
      req.server_latent[d] = req.mobile_latent[d] + rng.normal(0.0, 0.03);
    }
    requests.push_back(std::move(req));
  }

  const auto t0 = std::chrono::steady_clock::now();
  PairingEngine engine(quantizer, config);
  for (auto& req : requests) engine.submit(std::move(req));
  const std::vector<PairingReport> reports = engine.finish();
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  Point point;
  point.threads = threads;
  point.wall_s = wall;
  point.sessions_per_sec = static_cast<double>(sessions) / wall;
  point.io_overlap = point.sessions_per_sec * config.radio_wait_s;
  std::vector<double> service_s, critical_s;
  int ok = 0;
  for (const PairingReport& r : reports) {
    if (r.success) ++ok;
    if (r.tau_violation) ++point.tau_violations;
    service_s.push_back(r.service_s);
    critical_s.push_back(r.critical_latency_s);
  }
  point.success_rate = static_cast<double>(ok) / static_cast<double>(sessions);
  point.p50_service_ms = percentile_ms(service_s, 0.50);
  point.p95_service_ms = percentile_ms(service_s, 0.95);
  point.p99_service_ms = percentile_ms(service_s, 0.99);
  point.p999_service_ms = percentile_ms(service_s, 0.999);
  point.p99_critical_ms = percentile_ms(critical_s, 0.99);
  point.p999_critical_ms = percentile_ms(critical_s, 0.999);
  return point;
}

// --- encoder-stage batching (DESIGN.md §11) --------------------------------

struct SensorPool {
  std::vector<nn::Tensor> imus;
  std::vector<nn::Tensor> rfs;
};

SensorPool make_sensor_pool(std::size_t count) {
  SensorPool pool;
  Rng rng(0x51D0);
  for (std::size_t i = 0; i < count; ++i) {
    nn::Tensor imu({3, 200}), rf({2, 400});
    for (std::size_t j = 0; j < imu.size(); ++j) imu[j] = static_cast<float>(rng.normal());
    for (std::size_t j = 0; j < rf.size(); ++j) rf[j] = static_cast<float>(rng.normal());
    pool.imus.push_back(std::move(imu));
    pool.rfs.push_back(std::move(rf));
  }
  return pool;
}

/// One timed run of `threads` submitters hammering a shared service; returns
/// sessions/sec. max_batch = 1 is the unbatched arm (every encode leads its
/// own single-sample flush through the identical queue/wake machinery).
double run_encoder_arm(core::EncoderPair& encoders, const SensorPool& pool, std::size_t threads,
                       std::size_t max_batch, int ops_per_thread, double* mean_batch) {
  core::BatchedEncoderConfig config;
  config.max_batch = max_batch;
  config.max_hold_s = 500e-6;
  core::BatchedEncoderService service(encoders, config);
  for (int i = 0; i < 4; ++i) (void)service.encode(pool.imus[0], pool.rfs[0]);  // warm arenas

  // Spawn first, then release every submitter at once: thread-creation cost
  // (milliseconds on a loaded single-core host) stays outside the window.
  // Ops come from a shared pool rather than a fixed per-thread quota: with a
  // quota, threads finish at skewed times and the stragglers' batches can no
  // longer fill, so every tail batch stalls on the hold deadline — a harness
  // artifact, not a property of the coalescing stage under steady load.
  std::atomic<bool> go{false};
  std::atomic<int> next{0};
  const int total_ops = ops_per_thread * static_cast<int>(threads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::size_t n = pool.imus.size();
      for (int i; (i = next.fetch_add(1, std::memory_order_relaxed)) < total_ops;) {
        const std::size_t s = static_cast<std::size_t>(i) % n;
        (void)service.encode(pool.imus[s], pool.rfs[s]);
      }
    });
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const auto stats = service.stats();
  if (mean_batch)
    *mean_batch = stats.batches > 0
                      ? static_cast<double>(stats.items - 4) / static_cast<double>(stats.batches - 4)
                      : 0.0;
  return static_cast<double>(threads) * ops_per_thread / wall;
}

struct EncoderPoint {
  std::size_t threads = 0;
  std::size_t max_batch = 0;
  double unbatched_sps = 0.0;
  double batched_sps = 0.0;
  double mean_batch = 0.0;
  double speedup = 0.0;
};

EncoderPoint run_encoder_point(core::EncoderPair& encoders, const SensorPool& pool,
                               std::size_t threads, int ops_per_thread) {
  EncoderPoint point;
  point.threads = threads;
  // Batch size tracks concurrency: with N submitters at most N items can
  // coalesce, and a larger cap would only park batches on the hold deadline.
  point.max_batch = std::min<std::size_t>(threads, 16);
  // Interleave the arms (u,b,u,b,...) and score each rep by its *paired*
  // ratio: the two arms of a rep run back-to-back under the same machine
  // load, so a noisy-neighbor stall cancels out of the quotient instead of
  // poisoning whichever arm it landed on. The reported sps pair is taken
  // from the rep whose ratio is the median, keeping the JSON self-consistent
  // (batched_sps / unbatched_sps == speedup exactly).
  constexpr int kReps = 7;
  double u[kReps], b[kReps], mb[kReps], r[kReps];
  for (int rep = 0; rep < kReps; ++rep) {
    mb[rep] = 0.0;
    u[rep] = run_encoder_arm(encoders, pool, threads, 1, ops_per_thread, nullptr);
    b[rep] = run_encoder_arm(encoders, pool, threads, point.max_batch, ops_per_thread, &mb[rep]);
    r[rep] = u[rep] > 0.0 ? b[rep] / u[rep] : 0.0;
  }
  int order[kReps] = {0, 1, 2, 3, 4, 5, 6};
  std::sort(order, order + kReps, [&](int x, int y) { return r[x] < r[y]; });
  const int mid = order[kReps / 2];
  point.unbatched_sps = u[mid];
  point.batched_sps = b[mid];
  point.mean_batch = mb[mid];
  point.speedup = r[mid];
  return point;
}

struct IntegrationResult {
  int sessions = 0;
  int successes = 0;
  int tau_violations = 0;
  int coalesced = 0;        ///< sessions whose encode batch held > 1 item
  double max_hold_ms = 0.0;
  double p99_critical_ms = 0.0;
};

/// Full pairing sessions through engine + service: raw tensors in, keys out,
/// coalescing hold charged against each session's tau budget.
IntegrationResult run_batched_integration(core::EncoderPair& encoders, const SensorPool& pool,
                                          const SeedQuantizer& quantizer, const WaveKeyConfig& wk,
                                          int sessions) {
  core::BatchedEncoderConfig enc_config;
  enc_config.max_batch = 4;
  enc_config.max_hold_s = 500e-6;
  core::BatchedEncoderService service(encoders, enc_config);

  PairingEngineConfig config;
  config.threads = 4;
  config.queue_capacity = 32;
  config.session.tau_s = wk.tau_s;
  config.session.gesture_window_s = wk.gesture_window_s;
  config.session.params.key_bits = wk.key_bits;
  config.session.params.eta = wk.eta;
  config.encoder_service = &service;
  config.synthetic_residual_sigma = 0.03;

  PairingEngine engine(quantizer, config);
  for (int i = 0; i < sessions; ++i) {
    PairingRequest req;
    req.id = static_cast<std::uint64_t>(i);
    req.rng_seed = static_cast<std::uint64_t>(i) * 7919 + 17;
    req.imu_input = pool.imus[static_cast<std::size_t>(i) % pool.imus.size()];
    req.rf_input = pool.rfs[static_cast<std::size_t>(i) % pool.rfs.size()];
    engine.submit(std::move(req));
  }
  const std::vector<PairingReport> reports = engine.finish();

  IntegrationResult result;
  result.sessions = sessions;
  std::vector<double> critical_s;
  for (const PairingReport& r : reports) {
    if (r.success) ++result.successes;
    if (r.tau_violation) ++result.tau_violations;
    if (r.encode_batch > 1) ++result.coalesced;
    result.max_hold_ms = std::max(result.max_hold_ms, r.encode_hold_s * 1000.0);
    critical_s.push_back(r.critical_latency_s);
  }
  result.p99_critical_ms = percentile_ms(critical_s, 0.99);
  return result;
}

}  // namespace

int main() {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  const int sessions = session_count();
  const std::vector<std::size_t> counts = thread_counts();

  std::printf("{\n  \"bench\": \"throughput\",\n  \"sessions_per_point\": %d,\n"
              "  \"radio_wait_ms\": %.1f,\n  \"hardware_threads\": %zu,\n"
              "  \"tau_budget_ms\": %.1f,\n  \"points\": [\n",
              sessions, radio_wait_s() * 1000.0, runtime::ThreadPool::hardware_threads(),
              wk.tau_s * 1000.0);

  std::vector<Point> points;
  bool first = true;
  int total_violations = 0;
  bool all_succeeded = true;
  bool p99_within_tau = true;
  bool overlap_ok = true;  // moot when the env knob disables the radio wait
  for (std::size_t threads : counts) {
    const Point p = run_point(quantizer, wk, threads, sessions);
    points.push_back(p);
    total_violations += p.tau_violations;
    if (p.success_rate < 1.0) all_succeeded = false;
    if (p.p99_critical_ms > wk.tau_s * 1000.0) p99_within_tau = false;
    if (radio_wait_s() > 0.0 && p.io_overlap < 2.5) overlap_ok = false;
    std::printf("%s    {\"threads\": %zu, \"wall_s\": %.3f, \"sessions_per_sec\": %.2f, "
                "\"io_overlap\": %.2f, "
                "\"success_rate\": %.4f, \"p50_service_ms\": %.2f, \"p95_service_ms\": %.2f, "
                "\"p99_service_ms\": %.2f, \"p999_service_ms\": %.2f, "
                "\"p99_critical_ms\": %.2f, \"p999_critical_ms\": %.2f, "
                "\"tau_violations\": %d}",
                first ? "" : ",\n", p.threads, p.wall_s, p.sessions_per_sec, p.io_overlap,
                p.success_rate, p.p50_service_ms, p.p95_service_ms, p.p99_service_ms,
                p.p999_service_ms, p.p99_critical_ms, p.p999_critical_ms, p.tau_violations);
    first = false;
  }

  // --- encoder-stage batching curve ----------------------------------------
  Rng enc_rng(6);
  core::EncoderPair encoders(wk.latent_dim, enc_rng);
  const SensorPool pool = make_sensor_pool(8);
  // Encoder ops are ~50 us each, far cheaper than full sessions: a floor of
  // 240 per thread keeps warmup transients amortized even at the CI scale
  // factor, where `sessions` alone would be too short a run.
  const int enc_ops = std::max(240, sessions);

  std::printf("\n  ],\n  \"encoder_stage\": {\n    \"ops_per_thread\": %d,\n"
              "    \"max_hold_us\": 500,\n    \"points\": [\n", enc_ops);
  double batched_speedup_8t = 0.0;
  bool have_8t = false;
  first = true;
  for (std::size_t threads : counts) {
    const EncoderPoint p = run_encoder_point(encoders, pool, threads, enc_ops);
    if (p.threads == 8) {
      batched_speedup_8t = p.speedup;
      have_8t = true;
    }
    std::printf("%s      {\"threads\": %zu, \"max_batch\": %zu, \"unbatched_sps\": %.0f, "
                "\"batched_sps\": %.0f, \"mean_batch\": %.2f, \"speedup\": %.2f}",
                first ? "" : ",\n", p.threads, p.max_batch, p.unbatched_sps, p.batched_sps,
                p.mean_batch, p.speedup);
    first = false;
  }

  // --- integrated engine + service sessions --------------------------------
  const IntegrationResult integ =
      run_batched_integration(encoders, pool, quantizer, wk, sessions);
  std::printf("\n    ],\n    \"speedup_batched_8t\": %.2f\n  },\n"
              "  \"batched_integration\": {\"sessions\": %d, \"successes\": %d, "
              "\"tau_violations\": %d, \"coalesced\": %d, \"max_hold_ms\": %.3f, "
              "\"p99_critical_ms\": %.2f},\n",
              batched_speedup_8t, integ.sessions, integ.successes, integ.tau_violations,
              integ.coalesced, integ.max_hold_ms, integ.p99_critical_ms);

  double one_thread = 0.0, four_thread = 0.0;
  for (const Point& p : points) {
    if (p.threads == 1) one_thread = p.sessions_per_sec;
    if (p.threads == 4) four_thread = p.sessions_per_sec;
  }
  const double speedup = one_thread > 0.0 ? four_thread / one_thread : 0.0;

  // CPU scaling only: the radio waits overlap at one thread already.
  std::printf("  \"speedup_4t_over_1t\": %.2f,\n"
              "  \"tau_deadline_violations\": %d\n}\n",
              speedup, total_violations + integ.tau_violations);

  const bool batch_ok = !have_8t || batched_speedup_8t >= 2.0;
  const bool integ_ok = integ.successes == integ.sessions && integ.tau_violations == 0 &&
                        integ.p99_critical_ms <= wk.tau_s * 1000.0;
  return (all_succeeded && p99_within_tau && total_violations == 0 && overlap_ok && batch_ok &&
          integ_ok)
             ? 0
             : 1;
}
