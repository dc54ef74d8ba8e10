#include "core/pairing_engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>

#include "crypto/drbg.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/task.hpp"

namespace wavekey::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

struct PairingEngine::Impl {
  const SeedQuantizer& quantizer;
  PairingEngineConfig config;
  // Sessions admitted but not yet finished, at most queue_capacity.
  runtime::AdmissionWindow window;

  std::mutex reports_mutex;
  std::vector<PairingReport> reports;

  // Last member: its destructor (close + drain + join) runs first, while the
  // rest of Impl is still alive for in-flight session coroutines.
  runtime::EventLoop loop;

  Impl(const SeedQuantizer& q, const PairingEngineConfig& c)
      : quantizer(q),
        config(c),
        window(c.queue_capacity),
        loop(std::max<std::size_t>(c.threads, 1)) {
    // The protocol's seed length must match what the quantizer emits.
    config.session.params.seed_bits = quantizer.seed_bits();
  }

  bool submit(PairingRequest&& request) {
    const Clock::time_point submitted = Clock::now();  // queue_wait_s counts backpressure
    if (!window.acquire()) return false;
    if (loop.spawn(serve(std::move(request), submitted))) return true;
    window.release();  // lost the race with finish(): never admitted
    return false;
  }

  /// One session as a coroutine. Every exception is caught here: one
  /// escaping a spawned task would terminate the process, and the slot must
  /// be released whatever the session's fate.
  runtime::Task<void> serve(PairingRequest request, Clock::time_point submitted) {
    const Clock::time_point start = Clock::now();
    PairingReport report;
    report.id = request.id;
    report.queue_wait_s = std::chrono::duration<double>(start - submitted).count();
    try {
      protocol::SessionConfig session = config.session;

      // Quantization is real per-session compute: charge its measured
      // wall-clock cost into the virtual session clock so contention between
      // concurrent sessions counts against the tau window.
      const Clock::time_point q0 = Clock::now();
      const BitVec mobile_seed = quantizer.quantize(request.mobile_latent);
      const double mobile_quant_s = seconds_since(q0);
      const Clock::time_point q1 = Clock::now();
      const BitVec server_seed = quantizer.quantize(request.server_latent);
      const double server_quant_s = seconds_since(q1);

      session.mobile_compute_s += mobile_quant_s;
      session.server_compute_s += server_quant_s;

      // Radio I/O emulation: the exchange spends real time waiting on the
      // air interface (BLE connection intervals). The frame parks in the
      // timer wheel, so the worker runs other sessions' compute meanwhile.
      // The wait is wall time only and is never charged to the virtual clock.
      co_await loop.sleep_for(config.radio_wait_s);

      crypto::Drbg mobile_rng(request.rng_seed ^ 0xAB1Eull);
      crypto::Drbg server_rng(request.rng_seed ^ 0x5E44ull);
      const protocol::SessionResult result = protocol::run_key_agreement(
          session, mobile_seed, server_seed, mobile_rng, server_rng);

      report.success = result.success;
      report.failure = result.failure;
      report.key = result.mobile_key;
      report.elapsed_s = result.elapsed_s;
      report.critical_latency_s = result.critical_arrival_s - session.gesture_window_s;
      report.tau_violation = result.success && report.critical_latency_s > session.tau_s;
      if (report.success && config.on_established)
        config.on_established(report.id, report.key);
    } catch (const std::exception& e) {
      report.success = false;
      report.failure = protocol::FailureReason::kMalformedMessage;
      report.error = e.what();
    } catch (...) {
      report.success = false;
      report.failure = protocol::FailureReason::kMalformedMessage;
      report.error = "non-standard exception";
    }
    report.service_s = seconds_since(start);
    {
      std::lock_guard<std::mutex> lock(reports_mutex);
      reports.push_back(std::move(report));
    }
    window.release();
  }

  std::vector<PairingReport> finish() {
    window.close();  // blocked submitters return false
    loop.close();
    loop.drain();
    std::lock_guard<std::mutex> lock(reports_mutex);
    std::vector<PairingReport> out = reports;
    std::sort(out.begin(), out.end(),
              [](const PairingReport& a, const PairingReport& b) { return a.id < b.id; });
    return out;
  }
};

PairingEngine::PairingEngine(const SeedQuantizer& quantizer, const PairingEngineConfig& config)
    : impl_(new Impl(quantizer, config)) {}

PairingEngine::~PairingEngine() {
  impl_->finish();  // close + drain while the session frames' Impl is alive
  delete impl_;
}

bool PairingEngine::submit(PairingRequest request) { return impl_->submit(std::move(request)); }

std::vector<PairingReport> PairingEngine::finish() { return impl_->finish(); }

}  // namespace wavekey::core
