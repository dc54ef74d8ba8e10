#pragma once

// HMAC-SHA256 (RFC 2104). The key-agreement protocol's final confirmation
// step is "HMAC of the nonce N using the established key as the password"
// (SIV-D2 / Fig. 4).
//
// HmacKey is the one HMAC path: it compresses the key's ipad and opad blocks
// once and keeps only their two 32-byte chaining values, so a caller that
// holds the HmacKey for a long-lived key (GrantIssuer's lineages, the
// OfflineVerifier's tags) pays two compressions per short message instead
// of four. hmac_sha256 is the one-shot form over the same object.

#include <initializer_list>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"

namespace wavekey::crypto {

/// Keyed HMAC-SHA256 state: the ipad/opad midstates of one key (64 bytes,
/// no key bytes kept). Immutable after construction; safe to share between
/// threads.
class HmacKey {
 public:
  /// Keys longer than the block size are pre-hashed per the RFC.
  explicit HmacKey(std::span<const std::uint8_t> key);

  /// HMAC of `data` under this key.
  Digest256 mac(std::span<const std::uint8_t> data) const;

  /// HMAC of the concatenation of `parts`, without copying them together.
  Digest256 mac(std::initializer_list<std::span<const std::uint8_t>> parts) const;

 private:
  Sha256::Midstate inner_;  ///< after H(key ^ ipad)
  Sha256::Midstate outer_;  ///< after H(key ^ opad)
};

/// HMAC-SHA256 of `data` under `key`: HmacKey(key).mac(data).
Digest256 hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> data);

/// Constant-time digest comparison (avoids leaking the mismatch position to
/// a timing observer during key confirmation).
bool digest_equal(const Digest256& a, const Digest256& b);

}  // namespace wavekey::crypto
