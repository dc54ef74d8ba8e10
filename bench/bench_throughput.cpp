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
// Each session spends 45 ms suspended in emulated radio I/O (BLE
// connection-interval round-trips between the phone and the reader). The
// engine parks those waits in the event loop's timer wheel, so they overlap
// at every thread count, one included. Each point reports that overlap as
// `io_overlap` = sessions * radio_wait / wall (how many waits were in flight
// at once on average) — the same rule bench_server applies to its actuation
// waits (DESIGN.md §9.4). Real crypto cost is still charged into each
// session's virtual clock by the protocol layer, so CPU contention between
// concurrent sessions counts against the tau window and would surface as
// tau violations.
//
// Exit code (the CI gate): at every thread count (1, 2, 4, 8) all sessions
// succeed, p99 critical latency <= tau, zero tau violations, and
// io_overlap >= 2.5. Each miss is named on stderr.
//
// Knob: WAVEKEY_BENCH_SCALE scales sessions per point (default 1.0).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/harness.hpp"
#include "core/config.hpp"
#include "core/pairing_engine.hpp"
#include "core/seed_quantizer.hpp"
#include "numeric/rng.hpp"
#include "runtime/event_loop.hpp"

using namespace wavekey;
using namespace wavekey::core;

namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr double kRadioWaitS = 0.045;  // ~3 BLE connection intervals at 15 ms

int session_count() {
  const int n = static_cast<int>(64 * bench::scale());
  return n < 8 ? 8 : n;
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
  config.radio_wait_s = kRadioWaitS;
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

}  // namespace

int main() {
  const WaveKeyConfig wk;
  const SeedQuantizer quantizer = SeedQuantizer::from_normal(wk);
  const int sessions = session_count();
  const double tau_ms = wk.tau_s * 1000.0;

  std::printf("{\n  \"bench\": \"throughput\",\n  \"sessions_per_point\": %d,\n"
              "  \"radio_wait_ms\": %.1f,\n  \"hardware_threads\": %zu,\n"
              "  \"tau_budget_ms\": %.1f,\n  \"points\": [\n",
              sessions, kRadioWaitS * 1000.0, runtime::usable_cpus(), tau_ms);

  bench::Gate gate("bench_throughput");
  std::vector<Point> points;
  bool first = true;
  int total_violations = 0;
  for (std::size_t threads : kThreadCounts) {
    const Point p = run_point(quantizer, wk, threads, sessions);
    points.push_back(p);
    total_violations += p.tau_violations;
    gate.check(p.success_rate == 1.0, "success rate %.4f < 1 at %zu threads", p.success_rate,
               threads);
    gate.check(p.p99_critical_ms <= tau_ms,
               "p99 critical latency %.2f ms exceeds the tau budget %.1f ms at %zu threads",
               p.p99_critical_ms, tau_ms, threads);
    // Radio waits park in the event loop's timer wheel, so they overlap at
    // every thread count; thread scaling (speedup_4t_over_1t) is CPU
    // scaling and is reported, not gated.
    gate.check(p.io_overlap >= 2.5,
               "I/O overlap factor %.2f < 2.5 at %zu threads: radio waits are serializing",
               p.io_overlap, threads);
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

  std::printf("\n  ],\n");

  double one_thread = 0.0, four_thread = 0.0;
  for (const Point& p : points) {
    if (p.threads == 1) one_thread = p.sessions_per_sec;
    if (p.threads == 4) four_thread = p.sessions_per_sec;
  }
  const double speedup = one_thread > 0.0 ? four_thread / one_thread : 0.0;

  // CPU scaling only: the radio waits overlap at one thread already.
  std::printf("  \"speedup_4t_over_1t\": %.2f,\n"
              "  \"tau_deadline_violations\": %d\n}\n",
              speedup, total_violations);

  gate.check(total_violations == 0, "%d tau deadline violations", total_violations);
  return gate.exit_code();
}
