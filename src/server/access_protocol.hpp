#pragma once

// Post-establishment access protocol (DESIGN.md §9.2): once a WaveKey
// pairing session has produced a key, the mobile authenticates each access
// request to the backend with an HMAC-SHA256 over (session id, epoch,
// monotonic counter, nonce, payload) keyed by the vault key of the named
// epoch. The server answers with an AccessGrant carrying a typed status and
// its own HMAC over (session id, counter, status), so the client can tell a
// genuine rejection from an injected one.
//
// Replay defense is split between the two layers: the counter feeds the
// per-session sliding-bitmap window (server/replay_window.hpp) held inside
// the vault; the random nonce keys apart two requests that legitimately
// carry the same (counter, payload) after a window reset (rotation).
//
// Parsing attacker-controlled bytes either succeeds or throws
// protocol::WireError — never UB (fuzzed in tests/server_test.cpp).
//
// Thread-safety: plain value types and pure functions; no shared state.

#include <array>
#include <cstdint>
#include <span>

#include "crypto/hmac.hpp"
#include "protocol/wire.hpp"

namespace wavekey::server {

using protocol::Bytes;

/// HMAC-SHA256 tag length on the wire.
inline constexpr std::size_t kMacBytes = 32;
/// Request nonce length.
inline constexpr std::size_t kNonceBytes = 8;

/// Outcome of an access request — every rejection class is distinct, so
/// telemetry (and tests) can tell replay from expiry from revocation from
/// overload. Wire-encoded as one byte in AccessGrant.
enum class AccessStatus : std::uint8_t {
  kGranted = 0,
  kUnknownSession = 1,  ///< no vault entry for the session id
  kExpired = 2,         ///< entry outlived its TTL
  kRevoked = 3,         ///< entry explicitly revoked
  kStaleEpoch = 4,      ///< request epoch != vault epoch (key was rotated)
  kBadMac = 5,          ///< HMAC verification failed (tampering / wrong key)
  kReplay = 6,          ///< counter already seen or below the replay window
  kRateLimited = 7,     ///< tenant token bucket empty (admission reject)
  kShed = 8,            ///< admission queue full (overload shed)
  kMalformed = 9,       ///< request failed to parse
  // Distributed-tier statuses (src/server/cluster.*, gateway.*): outcomes a
  // request can only have once the backend is a multi-node service.
  kUnavailable = 10,    ///< owning vault node down, failover not yet complete
  kRetryExhausted = 11, ///< gateway gave up after its capped retry budget
  // Offline-grant statuses (src/server/grants.*): rejections only a
  // disconnected-actuator token verification can produce.
  kCounterRollback = 12, ///< grant counter regressed below the accepted high-water
  kWrongScope = 13,      ///< token scope not allowed for this tag/actuator
};

/// Number of distinct AccessStatus values (for status-indexed counters).
inline constexpr std::size_t kAccessStatusCount = 14;

/// Human-readable status name (telemetry / bench output).
const char* access_status_name(AccessStatus status);

/// Client → server. `mac` authenticates every preceding field.
struct AccessRequest {
  std::uint64_t session_id = 0;
  std::uint32_t epoch = 0;    ///< key epoch the client believes is current
  std::uint64_t counter = 0;  ///< strictly-increasing per (session, epoch)
  std::array<std::uint8_t, kNonceBytes> nonce{};
  Bytes payload;  ///< opaque command (door id, service ticket, ...)
  std::array<std::uint8_t, kMacBytes> mac{};

  /// Full wire encoding (type tag, fields, MAC).
  Bytes serialize() const;
  /// The MAC's message: the serialization up to (excluding) the MAC. The
  /// encoding is canonical, so for any `wire` that parses this equals
  /// `wire` without its last kMacBytes bytes; the server verifies over those
  /// received bytes instead of re-encoding (AccessExchange).
  Bytes mac_input() const;
  /// Parses and validates framing; throws protocol::WireError on malformed
  /// or truncated input, trailing bytes included. Copies only the payload.
  /// The MAC is carried, not checked — only the vault knows the key
  /// (KeyVault::authorize).
  static AccessRequest parse(std::span<const std::uint8_t> wire);
};

/// Builds a fully-MACed request under `key` (the client-side encoder).
AccessRequest make_access_request(std::uint64_t session_id, std::uint32_t epoch,
                                  std::uint64_t counter,
                                  const std::array<std::uint8_t, kNonceBytes>& nonce,
                                  Bytes payload, std::span<const std::uint8_t> key);

/// Server → client. For statuses where the server holds the session key the
/// MAC authenticates (session id, counter, status); otherwise (unknown
/// session, malformed, overload) it is all-zero — the client treats such
/// grants as unauthenticated advice.
struct AccessGrant {
  std::uint64_t session_id = 0;
  std::uint64_t counter = 0;
  AccessStatus status = AccessStatus::kMalformed;
  std::array<std::uint8_t, kMacBytes> mac{};

  /// One allocation of exactly 50 bytes: the 18 bytes the MAC covers (tag,
  /// session id, counter, status), then the MAC.
  Bytes serialize() const;
  /// Throws protocol::WireError on malformed input (unknown status byte
  /// included).
  static AccessGrant parse(std::span<const std::uint8_t> wire);
};

/// Builds a grant MACed under the key schedule `key` — the server's one grant
/// encoder, which AccessExchange feeds the schedule the vault verified with.
AccessGrant make_access_grant(std::uint64_t session_id, std::uint64_t counter,
                              AccessStatus status, const crypto::HmacKey& key);

/// Builds a grant; MACs it iff `key` is non-empty (through the HmacKey form).
AccessGrant make_access_grant(std::uint64_t session_id, std::uint64_t counter,
                              AccessStatus status, std::span<const std::uint8_t> key);

/// Client-side verification of a grant's MAC under the session key.
bool verify_access_grant(const AccessGrant& grant, std::span<const std::uint8_t> key);

}  // namespace wavekey::server
