// Reliability sweep: key-agreement success rate vs. packet-loss rate and
// latency jitter, single-shot transport vs. the ARQ transport, on identical
// deterministic channel seeds. Emits a JSON curve (one object per loss
// point) demonstrating that the ARQ wins back the sessions the single-shot
// protocol loses, without ever counting a tau-deadline violation as a
// success (the session engine enforces the deadline; this bench re-checks
// critical_arrival_s and counts violations separately).
//
// Protocol-level bench: seeds are synthetic (identical on both sides), so
// the curve isolates *transport* behaviour from pipeline noise. Scale the
// per-point session count with WAVEKEY_BENCH_SCALE.

#include <cstdio>
#include <vector>

#include "bench/harness.hpp"
#include "crypto/drbg.hpp"
#include "protocol/arq.hpp"
#include "protocol/faulty_channel.hpp"
#include "protocol/session.hpp"

using namespace wavekey;
using namespace wavekey::protocol;

namespace {

int session_count() {
  const int n = static_cast<int>(120 * bench::scale());
  return n < 8 ? 8 : n;
}

struct SweepPoint {
  double loss;
  double jitter_ms;
  int sessions = 0;
  int single_ok = 0;
  int arq_ok = 0;
  int arq_timeouts = 0;
  long retransmissions = 0;
  int deadline_violations = 0;  ///< successes whose critical arrival broke tau (must stay 0)
};

SweepPoint run_point(double loss, double jitter_ms, int sessions) {
  SessionConfig config;
  config.params.seed_bits = 48;
  config.params.key_bits = 256;
  config.params.eta = 0.10;
  const double deadline = config.gesture_window_s + config.tau_s;

  LinkFaultConfig f;
  f.loss = loss;
  f.corrupt = loss / 10.0;  // bursty channels corrupt as well as drop
  f.duplicate = loss / 10.0;
  f.jitter = jitter_ms > 0.0 ? JitterDistribution::kExponential : JitterDistribution::kNone;
  f.jitter_s = jitter_ms / 1000.0;

  SweepPoint point;
  point.loss = loss;
  point.jitter_ms = jitter_ms;
  point.sessions = sessions;
  for (int i = 0; i < sessions; ++i) {
    const std::uint64_t cs = static_cast<std::uint64_t>(i) * 7919 + 17;
    crypto::Drbg seed_rng(cs ^ 0xF00Dull);
    const BitVec seed = seed_rng.random_bits(48);

    {
      FaultyChannel channel(FaultyChannelConfig::symmetric(f, cs));
      crypto::Drbg m_rng(cs * 2 + 1), s_rng(cs * 2 + 2);
      const SessionResult r =
          run_key_agreement(config, seed, seed, m_rng, s_rng, channel.as_interceptor());
      if (r.success) {
        ++point.single_ok;
        if (r.critical_arrival_s > deadline) ++point.deadline_violations;
      }
    }
    {
      FaultyChannel channel(FaultyChannelConfig::symmetric(f, cs));
      crypto::Drbg m_rng(cs * 2 + 1), s_rng(cs * 2 + 2);
      const SessionResult r =
          run_key_agreement_arq(config, ArqConfig{}, channel, seed, seed, m_rng, s_rng);
      if (r.success) {
        ++point.arq_ok;
        if (r.critical_arrival_s > deadline) ++point.deadline_violations;
      } else if (r.failure == FailureReason::kTimeout) {
        ++point.arq_timeouts;
      }
      point.retransmissions += r.arq.retransmissions;
    }
  }
  return point;
}

}  // namespace

int main() {
  const int sessions = session_count();
  const double loss_rates[] = {0.0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30};
  const double jitters_ms[] = {0.0, 10.0};

  std::printf("{\n  \"bench\": \"reliability\",\n  \"sessions_per_point\": %d,\n  \"points\": [\n",
              sessions);
  bool first = true;
  bool arq_dominates = true;
  int total_violations = 0;
  for (double jitter : jitters_ms) {
    for (double loss : loss_rates) {
      const SweepPoint p = run_point(loss, jitter, sessions);
      if (p.arq_ok < p.single_ok) arq_dominates = false;
      total_violations += p.deadline_violations;
      std::printf("%s    {\"loss\": %.2f, \"jitter_ms\": %.0f, "
                  "\"single_shot_success\": %.4f, \"arq_success\": %.4f, "
                  "\"arq_timeouts\": %d, \"mean_retransmissions\": %.2f, "
                  "\"deadline_violations\": %d}",
                  first ? "" : ",\n", p.loss, p.jitter_ms,
                  static_cast<double>(p.single_ok) / p.sessions,
                  static_cast<double>(p.arq_ok) / p.sessions, p.arq_timeouts,
                  static_cast<double>(p.retransmissions) / p.sessions, p.deadline_violations);
      first = false;
    }
  }
  std::printf("\n  ],\n  \"arq_at_least_single_shot_everywhere\": %s,\n"
              "  \"tau_deadline_violations\": %d\n}\n",
              arq_dominates ? "true" : "false", total_violations);
  return (arq_dominates && total_violations == 0) ? 0 : 1;
}
