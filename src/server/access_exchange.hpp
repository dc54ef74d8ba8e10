#pragma once

// The server's one request→grant routine (DESIGN.md §9.2), shared by
// AccessServer (one coroutine per request) and VaultCluster::execute (one
// gateway envelope):
//
//   AccessExchange x(wire);              parse; kMalformed if it fails
//   x.authorize(vault, now_s);           MAC checked over the received bytes
//   ... (the server parks here on actuation I/O)
//   x.grant_wire();                      MACed with the vault's key schedule
//
// A granted request builds the session key's HMAC schedule (two SHA-256
// compressions) once, not twice, and makes two heap allocations — the
// payload copy and the 50-byte grant — because the MAC input is the prefix
// of the wire that arrived rather than a re-encoding, and the grant's MAC
// input lives on the stack.
//
// Thread-safety: a value confined to one thread (or one coroutine) at a
// time; the vault it authorizes against is itself thread-safe.

#include <cstdint>
#include <optional>
#include <span>

#include "crypto/hmac.hpp"
#include "server/access_protocol.hpp"
#include "server/key_vault.hpp"

namespace wavekey::server {

class AccessExchange {
 public:
  /// Parses `wire`; status() is kMalformed if it does not parse. On success
  /// the exchange keeps a view of `wire`'s MAC input, so `wire` must
  /// outlive the exchange unmodified.
  explicit AccessExchange(std::span<const std::uint8_t> wire);

  bool parsed() const { return parsed_; }
  /// The parsed request; meaningful only if parsed().
  const AccessRequest& request() const { return request_; }
  AccessStatus status() const { return status_; }

  /// KeyVault::authorize over the received MAC input. On kGranted keeps the
  /// key schedule the vault verified with, for grant_wire(). Requires
  /// parsed().
  AccessStatus authorize(KeyVault& vault, double now_s);

  /// The serialized AccessGrant for status(): (session id, counter) of the
  /// request — (0, 0) if the wire did not parse — MACed iff granted.
  Bytes grant_wire() const;

 private:
  AccessRequest request_;
  std::span<const std::uint8_t> mac_input_;
  std::optional<crypto::HmacKey> grant_key_;
  AccessStatus status_ = AccessStatus::kMalformed;
  bool parsed_ = false;
};

}  // namespace wavekey::server
