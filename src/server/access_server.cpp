#include "server/access_server.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

#include "runtime/event_loop.hpp"
#include "runtime/task.hpp"
#include "server/access_exchange.hpp"

namespace wavekey::server {

namespace {

using Clock = std::chrono::steady_clock;

struct Job {
  std::uint64_t tag = 0;
  Bytes request_wire;
  AccessServer::Callback done;
  Clock::time_point enqueued;
};

}  // namespace

struct AccessServer::Impl {
  AccessServerConfig config;
  Clock::time_point epoch = Clock::now();
  KeyVault vault;
  TenantLimiter limiter;
  // Admission window: admitted-but-unfinished requests. With coroutine
  // serving a parked request holds no worker thread, so this counter — not
  // a queue of waiting jobs — is what gives queue_capacity its shedding
  // semantics: window full => kShed, exactly as the old bounded queue shed
  // when workers fell behind.
  std::atomic<std::size_t> active_admitted{0};
  std::atomic<bool> finished{false};
  /// Next vault TTL sweep deadline (seconds on the server clock). submit()
  /// CAS-claims it; the winner spawns a one-shot purge coroutine — no
  /// long-lived looping task that drain() would have to wait out.
  std::atomic<double> next_purge_s{0.0};

  // All stats live under one mutex: submit increments (submitted, in_flight)
  // and every outcome moves one unit from in_flight to its status counter in
  // the same critical section, so submitted == sum(status) + in_flight is an
  // exact invariant of every stats() snapshot — not just an eventual one.
  // suspended rides the same lock: suspended <= in_flight in every snapshot.
  mutable std::mutex stats_mutex;
  std::uint64_t submitted = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t suspended = 0;
  std::uint64_t peak_in_flight = 0;
  std::uint64_t peak_suspended = 0;
  std::uint64_t counters[kAccessStatusCount] = {};  // indexed by AccessStatus

  // Last member: its destructor (close + drain + join) runs first, while the
  // rest of Impl is still alive for in-flight request coroutines.
  runtime::EventLoop loop;

  explicit Impl(const AccessServerConfig& c)
      : config(c),
        vault(c.vault),
        limiter(c.admission),
        loop(std::max<std::size_t>(c.threads, 1)) {}

  double now_s() const { return seconds_at(Clock::now()); }
  double seconds_at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch).count();
  }

  void note_submitted() {
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++submitted;
    ++in_flight;
    if (in_flight > peak_in_flight) peak_in_flight = in_flight;
  }

  /// Undo for the submit-after-close race: the request was never admitted.
  void retract_submitted() {
    std::lock_guard<std::mutex> lock(stats_mutex);
    --submitted;
    --in_flight;
  }

  void count(AccessStatus status) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++counters[static_cast<std::size_t>(status)];
    --in_flight;
  }

  void note_suspended(bool entering) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    if (entering) {
      ++suspended;
      if (suspended > peak_suspended) peak_suspended = suspended;
    } else {
      --suspended;
    }
  }

  /// Builds the outcome for a fast-reject decided on the submit path.
  void reject_inline(std::uint64_t tag, AccessStatus status, const Callback& done) {
    count(status);
    AccessOutcome outcome;
    outcome.tag = tag;
    outcome.status = status;
    // No session key on this path: the grant is framed but unauthenticated.
    outcome.grant_wire = make_access_grant(0, 0, status, {}).serialize();
    if (done) done(outcome);
  }

  /// One request as a coroutine: parse + authorize run synchronously on the
  /// first resume; a granted request then parks in the timer wheel for the
  /// emulated actuation I/O instead of holding its worker.
  runtime::Task<void> serve(Job job) {
    const Clock::time_point start = Clock::now();
    AccessOutcome outcome;
    outcome.tag = job.tag;
    outcome.queue_wait_s = std::chrono::duration<double>(start - job.enqueued).count();

    // The exchange views job.request_wire; both live in this frame. One
    // clock read serves as the resume time and the vault's clock.
    AccessExchange exchange(job.request_wire);
    if (exchange.parsed()) exchange.authorize(vault, seconds_at(start));
    outcome.status = exchange.status();
    outcome.verify_s = std::chrono::duration<double>(Clock::now() - start).count();

    // Emulated downstream actuation (door strike / reader I/O): the frame
    // suspends into the timer wheel, charged after verification so verify_s
    // stays a pure crypto/vault measurement and queue_wait_s holds only
    // admission and scheduling — the park is reported in suspended_s. The
    // grant is built after it, from the key schedule kept in the exchange.
    if (outcome.status == AccessStatus::kGranted && config.io_wait_s > 0.0) {
      const Clock::time_point parked = Clock::now();
      note_suspended(true);
      co_await loop.sleep_for(config.io_wait_s);
      note_suspended(false);
      outcome.suspended_s = std::chrono::duration<double>(Clock::now() - parked).count();
    }

    outcome.grant_wire = exchange.grant_wire();
    count(outcome.status);
    active_admitted.fetch_sub(1, std::memory_order_release);
    if (job.done) job.done(outcome);
  }

  /// One-shot TTL sweep on an event-loop worker (see next_purge_s).
  runtime::Task<void> purge_vault() {
    vault.purge_expired(now_s());
    co_return;
  }

  /// Claims the purge deadline if due at `now` (server seconds); at most one
  /// submitter wins per interval. Called on the submit path, off the
  /// request's critical work.
  void maybe_spawn_purge(double now) {
    if (config.vault_purge_interval_s <= 0.0) return;
    double due = next_purge_s.load(std::memory_order_relaxed);
    if (now < due) return;
    if (!next_purge_s.compare_exchange_strong(due, now + config.vault_purge_interval_s,
                                              std::memory_order_relaxed)) {
      return;  // another submitter claimed this interval
    }
    // Spawn failure (post-finish race) is fine: the sweep is best-effort.
    (void)loop.spawn(purge_vault());
  }

  void finish() {
    bool expected = false;
    if (finished.compare_exchange_strong(expected, true)) {
      loop.close();
      loop.drain();
    }
  }
};

AccessServer::AccessServer(const AccessServerConfig& config) : impl_(new Impl(config)) {}

AccessServer::~AccessServer() { impl_->finish(); }

KeyVault& AccessServer::vault() { return impl_->vault; }

double AccessServer::now_s() const { return impl_->now_s(); }

bool AccessServer::submit(std::uint64_t tag, std::uint64_t tenant_id, Bytes request_wire,
                          Callback done) {
  // One clock reading serves the purge cadence, the token bucket and the
  // queue-wait start.
  const Clock::time_point arrived = Clock::now();
  const double now = impl_->seconds_at(arrived);
  impl_->maybe_spawn_purge(now);
  impl_->note_submitted();
  // Admission control first: a rate-limited tenant must not consume window
  // space, and both rejects must stay O(1) on the caller thread.
  if (!impl_->limiter.admit(tenant_id, now)) {
    impl_->reject_inline(tag, AccessStatus::kRateLimited, done);
    return true;
  }
  const std::size_t prev = impl_->active_admitted.fetch_add(1, std::memory_order_acquire);
  if (prev >= impl_->config.queue_capacity) {
    impl_->active_admitted.fetch_sub(1, std::memory_order_release);
    impl_->reject_inline(tag, AccessStatus::kShed, done);
    return true;
  }
  Job job{tag, std::move(request_wire), std::move(done), arrived};
  if (!impl_->loop.spawn(impl_->serve(std::move(job)))) {
    // Lost the race with finish(): never admitted, no outcome will ever be
    // counted for this request.
    impl_->active_admitted.fetch_sub(1, std::memory_order_release);
    impl_->retract_submitted();
    return false;
  }
  return true;
}

void AccessServer::finish() { impl_->finish(); }

AccessServerStats AccessServer::stats() const {
  // One lock around the whole snapshot: the invariants documented on
  // AccessServerStats depend on no counter moving mid-copy.
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  AccessServerStats s;
  s.submitted = impl_->submitted;
  s.in_flight = impl_->in_flight;
  s.suspended = impl_->suspended;
  s.peak_in_flight = impl_->peak_in_flight;
  s.peak_suspended = impl_->peak_suspended;
  const auto load = [&](AccessStatus st) {
    return impl_->counters[static_cast<std::size_t>(st)];
  };
  s.granted = load(AccessStatus::kGranted);
  s.unknown_session = load(AccessStatus::kUnknownSession);
  s.expired = load(AccessStatus::kExpired);
  s.revoked = load(AccessStatus::kRevoked);
  s.stale_epoch = load(AccessStatus::kStaleEpoch);
  s.bad_mac = load(AccessStatus::kBadMac);
  s.replay_rejected = load(AccessStatus::kReplay);
  s.rate_limited = load(AccessStatus::kRateLimited);
  s.shed = load(AccessStatus::kShed);
  s.malformed = load(AccessStatus::kMalformed);
  return s;
}

}  // namespace wavekey::server
