#pragma once

// Reader gateway (DESIGN.md §10.4): the front tier of the distributed
// backend. RFID readers hand access requests to a gateway; the gateway
// multiplexes them over a CRC-framed WAN transport onto the vault cluster
// and owns the retry policy:
//
//  * every request gets a cluster-unique request id up front — the
//    idempotency key. Retransmissions reuse it, so a retry of a request
//    whose *response* was lost is answered from the cluster's idempotency
//    cache instead of being re-executed (never replayed, never double-
//    granted);
//  * each attempt has a fixed timeout (deliveries arriving later are dead
//    to the attempt) and attempts are spaced by capped exponential backoff;
//  * the WAN is a protocol::FaultyChannel per request, seeded from the
//    configured seed and the request id — loss, bit corruption (caught by
//    the CRC frame), duplication, reordering and jitter compose with the
//    cluster's own failure modes, and a request's fault trace depends on
//    its id alone;
//  * the retry budget is finite, so every submitted request resolves with
//    a typed status: the cluster's answer, kUnavailable if the last thing
//    the gateway heard was "owner down", or kRetryExhausted if it never
//    heard anything at all. No request hangs, ever.
//
// Serving model: each admitted request is one coroutine spawned onto the
// gateway's runtime::EventLoop, like AccessServer and PairingEngine; a
// runtime::AdmissionWindow bounds the requests in flight.
//
// Thread-safety: submit() may be called from any thread; each request's
// coroutine owns its FaultyChannel (an externally-synchronized PRNG).
// finish() closes the intake and drains the loop — after it returns, every
// accepted request has had its callback invoked.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "protocol/faulty_channel.hpp"
#include "server/access_protocol.hpp"
#include "server/cluster.hpp"
#include "server/grants.hpp"

namespace wavekey::server {

struct GatewayConfig {
  std::uint32_t gateway_id = 0;  ///< high bits of every request id it mints
  std::size_t workers = 2;          ///< event-loop threads; sizes the loop only
  std::size_t queue_capacity = 256;  ///< requests in flight (admission window)
  std::uint32_t max_attempts = 4;     ///< >= 1; total tries per request
  double attempt_timeout_s = 0.050;   ///< virtual per-attempt delivery deadline
  double backoff_base_s = 0.0002;     ///< real sleep: base * 2^attempt ...
  double backoff_max_s = 0.002;       ///< ... capped here
  protocol::FaultyChannelConfig channel{};  ///< per-request seed: channel.seed + request id
  /// Disconnected-operation fallback (server/grants.hpp): when every attempt
  /// at the cluster died (kRetryExhausted) or the owner stayed down
  /// (kUnavailable) AND the submitted wire is a GrantToken, the gateway hands
  /// it to this actuator-side verifier instead of failing the request — the
  /// paper's "vault unreachable, door still opens for valid grants" mode.
  /// Not owned; must outlive the gateway. nullptr disables the fallback.
  OfflineVerifier* offline_verifier = nullptr;
  /// Virtual clock feeding the verifier's expiry checks (seconds). Required
  /// when offline_verifier is set; the test/bench harness advances it.
  std::function<double()> offline_now;
};

/// Final resolution of one submitted request.
struct GatewayResult {
  std::uint64_t request_id = 0;
  AccessStatus status = AccessStatus::kRetryExhausted;
  std::uint32_t attempts = 0;  ///< attempts actually spent (1..max_attempts)
  Bytes grant_wire;            ///< serialized AccessGrant ({} if none arrived)
  bool offline = false;        ///< status came from the OfflineVerifier fallback
};

/// Monotonic counters; snapshot under one lock so totals are consistent.
/// Invariant (asserted in tests): submitted == resolved after finish(), and
/// resolved == sum(outcomes).
struct GatewayStats {
  std::uint64_t submitted = 0;
  std::uint64_t resolved = 0;
  std::uint64_t attempts = 0;         ///< total attempts across all requests
  std::uint64_t frames_sent = 0;      ///< request + response frames offered
  std::uint64_t corrupt_dropped = 0;  ///< copies discarded by CRC/parse
  std::uint64_t timed_out_copies = 0; ///< copies past the attempt deadline
  std::uint64_t offline_verified = 0;  ///< requests resolved by the offline fallback
  std::uint64_t offline_granted = 0;   ///< ... of which kGranted
  std::array<std::uint64_t, kAccessStatusCount> outcomes{};
};

class ReaderGateway {
 public:
  using Callback = std::function<void(const GatewayResult&)>;

  ReaderGateway(VaultCluster& cluster, const GatewayConfig& config);
  /// Implies finish().
  ~ReaderGateway();

  ReaderGateway(const ReaderGateway&) = delete;
  ReaderGateway& operator=(const ReaderGateway&) = delete;

  /// Spawns the transport of one serialized AccessRequest. Blocks while
  /// `queue_capacity` requests are in flight (backpressure). Returns the
  /// minted request id, or nullopt if the gateway is finished. `callback`
  /// runs exactly once, on a loop thread, with the typed final result;
  /// the request's window slot is freed after it returns.
  std::optional<std::uint64_t> submit(std::uint64_t tenant_id,
                                      std::span<const std::uint8_t> request_wire,
                                      Callback callback);

  /// Closes intake and waits until every admitted request resolved.
  /// Idempotent.
  void finish();

  GatewayStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wavekey::server
