#pragma once

// Backend access-control server (DESIGN.md §9): the serving layer behind
// core::PairingEngine. Pairing hands established keys to the KeyVault
// (PairingEngineConfig::on_established); clients then authenticate every
// access request with an HMAC under their session key, and this server
// admits, verifies, and answers those requests from a worker pool.
//
// Request path (one coroutine per request on a runtime::EventLoop):
//   submit() [caller thread]  — tenant token bucket (kRateLimited) and
//                               admission window (kShed) fast-reject inline;
//                               admitted requests spawn a request coroutine;
//   event-loop workers        — the AccessExchange routine shared with
//                               VaultCluster (access_exchange.hpp): parse
//                               (kMalformed on WireError), then
//                               KeyVault::authorize under one shard lock
//                               (kUnknownSession / kExpired / kRevoked /
//                               kStaleEpoch / kBadMac / kReplay / kGranted),
//                               then `co_await sleep_for(io_wait_s)` for the
//                               emulated actuator I/O on grants — the frame
//                               parks in the timer wheel and the worker moves
//                               on, so in-flight grants are bounded by the
//                               admission window, not the thread count —
//                               then the completion callback with the
//                               AccessGrant, MACed under the vault's key
//                               schedule.
//
// Thread-safety: submit() from any number of threads; finish() once from
// one thread after producers stop (also run by the destructor). Completion
// callbacks run on event-loop workers (or inline on the submit path for
// fast-rejects) and must be thread-safe.

#include <cstdint>
#include <functional>
#include <memory>

#include "server/access_protocol.hpp"
#include "server/admission.hpp"
#include "server/key_vault.hpp"

namespace wavekey::server {

struct AccessServerConfig {
  std::size_t threads = 1;          ///< event-loop workers
  /// Admission window: max admitted-but-unfinished requests. With coroutine
  /// serving a parked grant holds no worker, so the window (not the thread
  /// count) is what bounds in-flight work; overflow -> kShed.
  std::size_t queue_capacity = 256;
  VaultConfig vault;
  AdmissionConfig admission;
  /// Emulated downstream actuation I/O per *granted* request (door strike /
  /// reader round-trip); the request suspends on the loop's timer wheel, so
  /// waits overlap, mirroring radio_wait_s in core::PairingEngine. Zero
  /// disables it.
  double io_wait_s = 0.0;
  /// TTL purge cadence: at most once per this interval, a submit() spawns a
  /// short-lived coroutine that sweeps the vault's timer wheels
  /// (KeyVault::purge_expired), so expired-but-never-touched sessions are
  /// reclaimed even when no request ever hits them again. Piggybacking on
  /// the submit path keeps the loop free of long-lived tasks (finish()'s
  /// drain() must see an emptying loop). Zero disables the sweep.
  double vault_purge_interval_s = 1.0;
};

/// Completion record handed to the callback.
struct AccessOutcome {
  std::uint64_t tag = 0;      ///< caller's correlation id from submit()
  AccessStatus status = AccessStatus::kMalformed;
  Bytes grant_wire;           ///< serialized AccessGrant (MACed if keyed)
  double verify_s = 0.0;      ///< parse + vault authorize wall time
  double queue_wait_s = 0.0;  ///< submit() entry -> first coroutine resume:
                              ///< admission (stats lock, token bucket, window)
                              ///< plus scheduling (0 for fast-rejects)
  double suspended_s = 0.0;   ///< parked on actuation I/O (co_await sleep_for);
                              ///< reported separately so queue_wait_s holds
                              ///< no I/O park
};

/// Serving counters (one per status, plus totals). stats() snapshots every
/// field under ONE lock, so a snapshot is internally consistent even while
/// submitters and workers race: submitted == granted + ... + malformed +
/// in_flight holds exactly, in every snapshot (asserted under contention in
/// tests/server_test.cpp). A torn multi-atomic read could not promise that.
struct AccessServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t in_flight = 0;  ///< admitted, outcome not yet counted
  /// Of in_flight: requests currently parked on actuation I/O (their frames
  /// sit in the timer wheel, no worker held). suspended <= in_flight in
  /// every snapshot — same one-lock discipline as the sum invariant.
  std::uint64_t suspended = 0;
  std::uint64_t peak_in_flight = 0;  ///< high-water mark of in_flight
  std::uint64_t peak_suspended = 0;  ///< high-water mark of suspended
  std::uint64_t granted = 0;
  std::uint64_t unknown_session = 0;
  std::uint64_t expired = 0;
  std::uint64_t revoked = 0;
  std::uint64_t stale_epoch = 0;
  std::uint64_t bad_mac = 0;
  std::uint64_t replay_rejected = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t shed = 0;
  std::uint64_t malformed = 0;
};

class AccessServer {
 public:
  using Callback = std::function<void(const AccessOutcome&)>;

  explicit AccessServer(const AccessServerConfig& config);
  ~AccessServer();

  AccessServer(const AccessServer&) = delete;
  AccessServer& operator=(const AccessServer&) = delete;

  /// The vault, for pairing handoff / rotation / revocation.
  KeyVault& vault();

  /// Seconds since server construction on the steady clock — the time axis
  /// fed to the vault TTLs and token buckets.
  double now_s() const;

  /// Admits `request_wire` from `tenant_id`. Fast-rejects (kRateLimited /
  /// kShed) invoke `done` inline and return true. Returns false only after
  /// finish() (request not processed, callback not invoked).
  bool submit(std::uint64_t tag, std::uint64_t tenant_id, Bytes request_wire, Callback done);

  /// Closes the queue, drains pending requests, joins workers. Idempotent.
  void finish();

  AccessServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wavekey::server
