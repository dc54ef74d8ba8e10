// Access stage: request serving against a large vault.
//
// Setup fills an AccessServer's vault with kSessions sessions (more than a
// 2 MiB L2 holds). Requests name sessions drawn uniformly; a small fixed
// share are probes: replays of the valid request kReplayLag valid requests
// back, requests with a corrupted MAC, and requests for sessions the vault
// never held. The request stream is one fixed sequence per seed. It is
// MACed batch by batch, untimed, just before each batch is sent, and that
// time is added to setup_s; the benchmark's own memory thus stays small
// next to the vault's. This stage never touches OT or the encoders.
//
// Each slice measures two things in turn:
// - Latency, open loop at the fixed offered rate (half the slice): one
//   generator thread submits request j when it is due (start + j / rate),
//   whatever the server is doing. Each latency runs from the due time to
//   the completion callback, so a stall is charged to every request it
//   delays, and the generator's own lateness is reported. A shed or
//   rate-limited request counts as missing any latency limit. Percentiles
//   are taken per kWindowS of requests; the run reports the lower quartile
//   over windows for the p50, the median for the tail percentiles.
// - Capacity: a fixed number of requests per second of budget, submitted
//   unpaced with at most kInFlight outstanding, in batches of
//   kCapacityBatch. The upper quartile over batches of completions per
//   second is the rate the server itself sustains. It is printed and, in a
//   traced run, reported per layer as access.max_rps; it is not an
//   end-to-end metric because across runs of the same code on the shared
//   VM this was tuned on it spread by 0.23-0.42 of its median, wider than
//   any allowed bound.
//
// The generator is pinned to one CPU and the server threads to the others,
// so where the scheduler happens to place them does not change the figures.
//
// Oracle: bad-MAC and unknown-session probes get their typed rejection and
// every other valid request is granted, except that a valid request and its
// replays form a group: the server serves requests concurrently, so
// whichever copy the vault sees first is granted and every other copy gets
// kReplay, in either order.

#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include <sched.h>

#include "bench.hpp"
#include "crypto/hmac.hpp"
#include "numeric/rng.hpp"
#include "server/access_server.hpp"

namespace perfbench {
namespace {

using namespace wavekey;
using server::AccessStatus;
using server::Bytes;

constexpr std::size_t kSessions = 100000;
constexpr std::size_t kTenants = 16;
constexpr std::size_t kLoopThreads = 2;
constexpr std::uint64_t kReplayLag = 2048;
constexpr double kProbeShare = 0.004;          ///< per probe kind
constexpr double kWindowS = 0.1;               ///< latency percentile window
constexpr std::size_t kOpenBatch = 32768;      ///< most requests MACed ahead of one open phase
constexpr std::size_t kCapacityBatch = 32768;  ///< requests per capacity sample
constexpr double kCapacityBatchesPerSecond = 2;  ///< per second of budget
constexpr std::size_t kInFlight = 1024;        ///< outstanding requests while measuring capacity
constexpr double kRejectedUs = 1e9;            ///< latency charged to a shed request
constexpr double kVaultNowS = 1.0;             ///< time axis of the replay vault
constexpr std::size_t kReplayRequests = 50000;   ///< traced single-threaded replay prefix
constexpr std::size_t kReportedViolations = 10;  ///< unexpected outcomes named one by one

enum class Kind : std::uint8_t { kValid, kReplay, kBadMac, kUnknown };

AccessStatus expected_status(Kind kind) {
  switch (kind) {
    case Kind::kValid: return AccessStatus::kGranted;
    case Kind::kReplay: return AccessStatus::kReplay;
    case Kind::kBadMac: return AccessStatus::kBadMac;
    case Kind::kUnknown: return AccessStatus::kUnknownSession;
  }
  return AccessStatus::kMalformed;
}

bool refused(AccessStatus st) {
  return st == AccessStatus::kShed || st == AccessStatus::kRateLimited;
}

server::VaultConfig vault_config() {
  server::VaultConfig vc;
  vc.capacity = 1u << 17;
  vc.ttl_s = 1e6;
  return vc;
}

/// Scoped CPU affinity of the calling thread: CPU 0 alone (the generator),
/// or every other CPU (the server threads it creates inherit the mask).
/// Placement then does not depend on where the scheduler happens to wake
/// each thread. A no-op on hosts with fewer than three CPUs.
class CpuPin {
 public:
  explicit CpuPin(bool generator) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0 || CPU_COUNT(&saved_) < 3) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    int first = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &saved_)) continue;
      if (first < 0) first = c;
      if ((c == first) == generator) CPU_SET(c, &set);
    }
    active_ = sched_setaffinity(0, sizeof(set), &set) == 0;
  }
  ~CpuPin() {
    if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

struct Fixture {
  std::vector<server::SessionKey> keys;
  std::unique_ptr<server::AccessServer> server;
};

std::unique_ptr<Fixture> build_fixture(std::uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  Rng rng(mix64(seed ^ 0x616363657373ull));
  fx->keys.resize(kSessions);
  for (auto& key : fx->keys) rng.fill_bytes(key);

  server::AccessServerConfig sc;
  sc.threads = kLoopThreads;
  sc.queue_capacity = 1u << 16;
  sc.vault = vault_config();
  sc.admission.rate_per_s = 1e12;  // admission is exercised but never binds
  sc.admission.burst = 1e12;
  sc.io_wait_s = 0.0;
  {
    // The server's threads inherit this mask: every CPU but the generator's.
    const CpuPin pin(false);
    fx->server = std::make_unique<server::AccessServer>(sc);
  }
  for (std::size_t s = 0; s < kSessions; ++s)
    fx->server->vault().install(s, fx->keys[s], fx->server->now_s());
  return fx;
}

/// Consecutive requests of the stream.
struct Batch {
  std::uint64_t first = 0;  ///< stream index of the first request
  std::vector<Bytes> wires;
  std::vector<Kind> kinds;
};

/// The request stream of a seed: request j is the same on every run with
/// that seed, however the stream is cut into batches.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, const std::vector<server::SessionKey>& keys)
      : keys_(keys), rng_(mix64(seed ^ 0x72657175657374ull)), counters_(keys.size(), 0),
        recent_(kReplayLag + 1) {}

  /// Replaces `batch` with the next n requests.
  void next(std::size_t n, Batch& batch) {
    batch.first = produced_;
    batch.wires.resize(n);
    batch.kinds.resize(n);
    for (std::size_t i = 0; i < n; ++i, ++produced_) {
      const double u = rng_.uniform();
      Kind kind = u < kProbeShare       ? Kind::kReplay
                  : u < 2 * kProbeShare ? Kind::kBadMac
                  : u < 3 * kProbeShare ? Kind::kUnknown
                                        : Kind::kValid;
      if (kind == Kind::kReplay && valid_ <= kReplayLag) kind = Kind::kValid;
      batch.kinds[i] = kind;
      if (kind == Kind::kReplay) {
        // Valid request v sits in recent_[v % size], so this slot holds the
        // one kReplayLag valid requests back.
        const Recent& original = recent_[valid_ % recent_.size()];
        replays_.emplace_back(produced_, original.index);
        batch.wires[i] = original.wire;
        continue;
      }
      const std::uint64_t session = rng_.uniform_u64(keys_.size());
      const bool unknown = kind == Kind::kUnknown;
      std::array<std::uint8_t, server::kNonceBytes> nonce{};
      rng_.fill_bytes(nonce);
      Bytes payload(16);
      rng_.fill_bytes(payload);
      server::AccessRequest req = server::make_access_request(
          unknown ? keys_.size() + session : session, 0, unknown ? 1 : ++counters_[session],
          nonce, std::move(payload), keys_[session]);
      if (kind == Kind::kBadMac) req.mac[rng_.uniform_u64(server::kMacBytes)] ^= 0x5A;
      batch.wires[i] = req.serialize();
      if (kind == Kind::kValid) recent_[valid_++ % recent_.size()] = {produced_, batch.wires[i]};
    }
  }

  /// (replay, original) stream indices of every replay so far, in stream
  /// order; the originals never decrease along it.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& replays() const { return replays_; }

 private:
  struct Recent {
    std::uint64_t index = 0;
    Bytes wire;
  };

  const std::vector<server::SessionKey>& keys_;
  Rng rng_;
  std::vector<std::uint64_t> counters_;  ///< last request counter per session
  std::vector<Recent> recent_;           ///< the last kReplayLag + 1 valid requests
  std::uint64_t valid_ = 0;
  std::uint64_t produced_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> replays_;
};

/// Open-loop percentiles, one entry per window.
struct Windows {
  std::vector<double> p50_us, p90_us, p99_us, lag_p99_us, queue_wait_p99_us;
};

class AccessStage final : public Stage {
 public:
  AccessStage(const Options& opt, Tracer& tracer, std::vector<double>& setup_s)
      : opt_(opt), tracer_(tracer), setup_s_(setup_s) {
    for (std::size_t r = 0; r < setup_s.size(); ++r) {
      fx_.reset();
      const std::uint64_t t0 = now_ns();
      fx_ = build_fixture(opt.seed);
      setup_s[r] += static_cast<double>(now_ns() - t0) / 1e9;
    }
    stream_ = std::make_unique<RequestStream>(opt.seed, fx_->keys);
  }

  void run_slice(double seconds) override {
    const CpuPin generator(true);
    const auto open = static_cast<std::size_t>(opt_.access_rate * seconds / 2);
    const std::size_t phases = (open + kOpenBatch - 1) / kOpenBatch;
    for (std::size_t p = 0; p < phases; ++p)
      run_open(open * (p + 1) / phases - open * p / phases);
    const auto batches = static_cast<std::size_t>(
        std::max(1.0, std::round(kCapacityBatchesPerSecond * seconds)));
    for (std::size_t b = 0; b < batches; ++b) run_capacity();
  }

  void finish(Report& report) override {
    const std::uint64_t failed = check_outcomes();
    for (std::size_t i = 0; i < violations_.size() && i < kReportedViolations; ++i)
      report.check(false, violations_[i]);
    report.check(violations_.size() <= kReportedViolations,
                 "access: " + std::to_string(violations_.size()) + " unexpected outcomes in all");
    report.check(accepted_replays_ == 0, "access: zero replays accepted");
    report.attempts(status_.size(), failed);

    // Ledger: the server's typed counters agree with the outcomes it reported.
    const server::AccessServerStats stats = fx_->server->stats();
    std::uint64_t seen[server::kAccessStatusCount] = {};
    for (const AccessStatus st : status_) ++seen[static_cast<std::size_t>(st)];
    const auto n_of = [&](AccessStatus s) { return seen[static_cast<std::size_t>(s)]; };
    report.check(stats.submitted == status_.size() && stats.in_flight == 0,
                 "access: submitted == resolved");
    report.check(stats.granted == n_of(AccessStatus::kGranted) &&
                     stats.replay_rejected == n_of(AccessStatus::kReplay) &&
                     stats.bad_mac == n_of(AccessStatus::kBadMac) &&
                     stats.unknown_session == n_of(AccessStatus::kUnknownSession) &&
                     stats.shed == n_of(AccessStatus::kShed) &&
                     stats.rate_limited == n_of(AccessStatus::kRateLimited),
                 "access: typed ledger matches the reported outcomes");
    std::uint64_t injected[4] = {};
    for (const Kind k : kinds_) ++injected[static_cast<int>(k)];
    std::printf("access probes: %llu replay, %llu bad-mac, %llu unknown of %zu requests\n",
                static_cast<unsigned long long>(injected[1]),
                static_cast<unsigned long long>(injected[2]),
                static_cast<unsigned long long>(injected[3]), status_.size());

    // A stall of the host's vCPUs backs the open loop up for a few windows;
    // the lower quartile over windows reads the server, not the stall.
    const double p50 = quantile(open_.p50_us, 0.25);
    const double max_rps = quantile(capacity_rps_, 0.75);
    std::printf("access capacity: %zu batches of %zu, completions/s min %.0f median %.0f max %.0f\n",
                capacity_rps_.size(), kCapacityBatch, quantile(capacity_rps_, 0.0),
                quantile(capacity_rps_, 0.5), quantile(capacity_rps_, 1.0));
    if (!opt_.trace) {
      report.metric("access_us_p50", p50, "us");
      return;
    }
    report.metric("access.max_rps", max_rps, "1/s");
    replay(report);
    const auto p50_us = [&](const char* name) {
      return ns_to_us(quantile(tracer_.span_self_ns(name), 0.5));
    };
    const double parse = p50_us("server.request_parse");
    const double authorize = p50_us("server.vault_authorize");
    const double grant = p50_us("server.grant_make");
    report.metric("server.request_parse_us", parse, "us");
    report.metric("server.vault_authorize_us", authorize, "us");
    report.metric("crypto.hmac_us", p50_us("crypto.hmac"), "us");
    report.metric("server.grant_make_us", grant, "us");
    report.metric("runtime.loop_overhead_us", p50 - (parse + authorize + grant), "us");
    report.metric("runtime.queue_wait_us_p99", quantile(open_.queue_wait_p99_us, 0.5), "us");
    report.metric("access.gen_lag_us_p99", quantile(open_.lag_p99_us, 0.5), "us");
    report.metric("access.access_us_p50", p50, "us");
    report.metric("access.access_us_p90", quantile(open_.p90_us, 0.5), "us");
    report.metric("access.access_us_p99", quantile(open_.p99_us, 0.5), "us");
    report.metric("server.granted", static_cast<double>(stats.granted), "count");
    report.metric("server.replay_rejected", static_cast<double>(stats.replay_rejected), "count");
    report.metric("server.bad_mac", static_cast<double>(stats.bad_mac), "count");
    report.metric("server.unknown_session", static_cast<double>(stats.unknown_session), "count");
    report.metric("server.shed", static_cast<double>(stats.shed), "count");
    report.metric("server.rate_limited", static_cast<double>(stats.rate_limited), "count");
    const server::VaultStats vs = fx_->server->vault().stats();
    report.metric("vault.version_retries", static_cast<double>(vs.version_retries), "count");
    report.metric("vault.locked_fallbacks", static_cast<double>(vs.locked_fallbacks), "count");
    report.metric("vault.bytes_per_session",
                  static_cast<double>(fx_->server->vault().memory_bytes()) /
                      static_cast<double>(fx_->server->vault().size()),
                  "B");
  }

 private:
  /// MACs the next n requests into batch_ and clears their outcome slots.
  /// Untimed; the time counts as set-up.
  void prepare(std::size_t n) {
    const std::uint64_t t0 = now_ns();
    stream_->next(n, batch_);
    kinds_.insert(kinds_.end(), batch_.kinds.begin(), batch_.kinds.end());
    status_.resize(status_.size() + n, AccessStatus::kMalformed);
    submit_ns_.assign(n, 0);
    done_ns_.assign(n, 0);
    queue_wait_ns_.assign(n, 0.0);
    completed_.store(0, std::memory_order_relaxed);
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    for (double& total : setup_s_) total += s;
  }

  /// Submits request i of batch_. The callback captures no more than
  /// std::function stores without allocating.
  void submit(std::size_t i) {
    const std::uint64_t j = batch_.first + i;
    fx_->server->submit(j, j % kTenants, batch_.wires[i],
                        [this, j](const server::AccessOutcome& outcome) {
                          const std::size_t k = j - batch_.first;
                          done_ns_[k] = now_ns();
                          status_[j] = outcome.status;
                          queue_wait_ns_[k] = outcome.queue_wait_s * 1e9;
                          completed_.fetch_add(1, std::memory_order_release);
                        });
  }

  void wait_all(std::size_t n) const {
    while (completed_.load(std::memory_order_acquire) < n)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  /// One open-loop phase: n requests, request i due at start + i / rate.
  void run_open(std::size_t n) {
    prepare(n);
    const double interval_ns = 1e9 / opt_.access_rate;
    const auto due = [&](std::size_t i) {
      return static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
    };
    const std::uint64_t start = now_ns() + 200000;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t t = now_ns();
      while (t < start + due(i)) t = now_ns();
      submit_ns_[i] = t;
      submit(i);
    }
    wait_all(n);

    std::vector<double> latency(n), lag(n), queue_wait(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t due_ns = start + due(i);
      latency[i] = refused(status_[batch_.first + i])
                       ? kRejectedUs
                       : ns_to_us(static_cast<double>(done_ns_[i] - due_ns));
      lag[i] = ns_to_us(static_cast<double>(submit_ns_[i] - due_ns));
      queue_wait[i] = ns_to_us(queue_wait_ns_[i]);
    }
    const auto windows = static_cast<std::size_t>(
        std::max(1.0, std::round(static_cast<double>(n) / (opt_.access_rate * kWindowS))));
    for (std::size_t w = 0; w < windows; ++w) {
      const auto lo = static_cast<std::ptrdiff_t>(n * w / windows);
      const auto hi = static_cast<std::ptrdiff_t>(n * (w + 1) / windows);
      const auto q = [&](const std::vector<double>& v, double p) {
        return quantile({v.begin() + lo, v.begin() + hi}, p);
      };
      open_.p50_us.push_back(q(latency, 0.5));
      open_.p90_us.push_back(q(latency, 0.9));
      open_.p99_us.push_back(q(latency, 0.99));
      open_.lag_p99_us.push_back(q(lag, 0.99));
      open_.queue_wait_p99_us.push_back(q(queue_wait, 0.99));
    }
  }

  /// One capacity sample: kCapacityBatch requests submitted unpaced, at most
  /// kInFlight outstanding, from the first submission to the last completion.
  void run_capacity() {
    const std::size_t n = kCapacityBatch;
    prepare(n);
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      while (i - completed_.load(std::memory_order_acquire) >= kInFlight) {
      }
      submit(i);
    }
    wait_all(n);
    const std::uint64_t last = *std::max_element(done_ns_.begin(), done_ns_.end());
    capacity_rps_.push_back(static_cast<double>(n) / (static_cast<double>(last - start) / 1e9));
  }

  /// Checks every outcome against its injected kind. Returns the number of
  /// failed requests: those with an outcome other than the expected one (a
  /// shed or rate-limited request is a failure, a rejected probe is not).
  std::uint64_t check_outcomes() {
    const auto& replays = stream_->replays();
    for (const auto& [copy, original] : replays) {
      members_.push_back(original);
      members_.push_back(copy);
    }
    std::sort(members_.begin(), members_.end());
    members_.erase(std::unique(members_.begin(), members_.end()), members_.end());

    std::uint64_t failed = 0;
    for (std::size_t j = 0; j < status_.size(); ++j) {
      const AccessStatus want = expected_status(kinds_[j]);
      if (status_[j] == want || std::binary_search(members_.begin(), members_.end(), j)) continue;
      ++failed;
      if (!refused(status_[j]))
        violations_.push_back("access: request " + std::to_string(j) + " got " +
                              server::access_status_name(status_[j]) + ", expected " +
                              server::access_status_name(want));
    }
    for (std::size_t g = 0; g < replays.size();) {
      std::vector<std::uint64_t> group{replays[g].second};
      for (; g < replays.size() && replays[g].second == group[0]; ++g)
        group.push_back(replays[g].first);
      failed += check_group(group);
    }
    return failed;
  }

  /// A valid request and its replays: the copy the vault sees first is
  /// granted and the others get kReplay, in whatever order they were served.
  /// Shed copies never reach the vault. Returns the failed copies.
  std::uint64_t check_group(const std::vector<std::uint64_t>& group) {
    std::uint64_t granted = 0, shed = 0, other = 0;
    for (const std::uint64_t j : group) {
      const AccessStatus st = status_[j];
      if (st == AccessStatus::kGranted) ++granted;
      else if (refused(st)) ++shed;
      else if (st != AccessStatus::kReplay) ++other;
    }
    const std::uint64_t want = shed < group.size() ? 1 : 0;
    if (granted > 1) accepted_replays_ += granted - 1;
    if (granted != want || other > 0)
      violations_.push_back("access: request " + std::to_string(group[0]) + " and its " +
                            std::to_string(group.size() - 1) + " replay(s): " +
                            std::to_string(granted) + " granted, " + std::to_string(other) +
                            " neither granted nor kReplay");
    return shed + other + (granted > want ? granted - want : want - granted);
  }

  /// The first kReplayRequests requests of the stream, regenerated and
  /// replayed single-threaded against an identical vault in stream order,
  /// one span per request-path layer. Every request outside a replay group
  /// must get the server's outcome; groups are checked by check_group.
  void replay(Report& report) {
    server::KeyVault vault(vault_config());
    for (std::size_t s = 0; s < kSessions; ++s) vault.install(s, fx_->keys[s], 0.0);
    RequestStream stream(opt_.seed, fx_->keys);
    Batch batch;
    stream.next(std::min(status_.size(), kReplayRequests), batch);
    std::uint64_t mismatches = 0;
    for (std::size_t j = 0; j < batch.wires.size(); ++j) {
      Tracer::Scope root(tracer_, "access.request", j);
      std::optional<server::AccessRequest> req;
      Bytes mac_input;
      {
        Tracer::Scope s(tracer_, "server.request_parse", j);
        req = server::AccessRequest::parse(batch.wires[j]);
        mac_input = req->mac_input();
      }
      server::SessionKey key{};
      AccessStatus st = AccessStatus::kMalformed;
      {
        Tracer::Scope s(tracer_, "server.vault_authorize", j);
        st = vault.authorize(*req, mac_input, kVaultNowS, &key);
      }
      if (batch.kinds[j] != Kind::kUnknown) {
        Tracer::Scope s(tracer_, "crypto.hmac", j);
        const crypto::Digest256 mac = crypto::hmac_sha256(fx_->keys[req->session_id], mac_input);
        (void)mac;
      }
      {
        Tracer::Scope s(tracer_, "server.grant_make", j);
        const bool keyed = st == AccessStatus::kGranted;
        const Bytes grant =
            server::make_access_grant(req->session_id, req->counter, st,
                                      keyed ? std::span<const std::uint8_t>(key)
                                            : std::span<const std::uint8_t>())
                .serialize();
        (void)grant;
      }
      if (!std::binary_search(members_.begin(), members_.end(), j)) mismatches += st != status_[j];
    }
    report.check(mismatches == 0, "access: single-threaded replay reproduces every outcome");
  }

  const Options& opt_;
  Tracer& tracer_;
  std::vector<double>& setup_s_;
  std::unique_ptr<RequestStream> stream_;
  Batch batch_;
  std::vector<std::uint64_t> submit_ns_, done_ns_;  ///< per request of batch_
  std::vector<double> queue_wait_ns_;               ///< per request of batch_
  std::atomic<std::size_t> completed_{0};           ///< of batch_
  std::vector<Kind> kinds_;             ///< every request's injected kind, by stream index
  std::vector<AccessStatus> status_;    ///< every request's outcome, by stream index
  std::vector<std::uint64_t> members_;  ///< stream indices of replay-group members, sorted
  Windows open_;
  std::vector<double> capacity_rps_;  ///< completions per second, per capacity batch
  std::uint64_t accepted_replays_ = 0;
  std::vector<std::string> violations_;
  /// Declared last, so the server stops before the slots its callbacks
  /// write are destroyed.
  std::unique_ptr<Fixture> fx_;
};

}  // namespace

std::unique_ptr<Stage> make_access(const Options& opt, Tracer& tracer,
                                   std::vector<double>& setup_s) {
  return std::make_unique<AccessStage>(opt, tracer, setup_s);
}

}  // namespace perfbench
