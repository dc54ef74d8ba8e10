#pragma once

// HKDF-SHA256 (RFC 5869) — extract-then-expand key derivation on top of
// crypto/hmac.hpp. The access-control server (src/server) rotates vault
// keys by re-deriving epoch k+1 from epoch k, so a compromised current key
// never reveals earlier traffic and rotation preserves full key entropy
// (tested against the NIST battery in tests/server_test.cpp).
//
// Thread-safety: pure functions, no shared state.

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"

namespace wavekey::crypto {

/// HKDF-Extract: PRK = HMAC-SHA256(salt, IKM). An empty salt means the
/// RFC's default all-zero salt of hash length.
Digest256 hkdf_extract(std::span<const std::uint8_t> salt, std::span<const std::uint8_t> ikm);

/// HKDF-Expand: OKM of `length` bytes from PRK and context `info`.
/// Throws std::invalid_argument if length > 255 * 32 (RFC 5869 bound).
std::vector<std::uint8_t> hkdf_expand(const Digest256& prk, std::span<const std::uint8_t> info,
                                      std::size_t length);

/// HKDF-Expand into a caller buffer: fills all of `okm` and allocates
/// nothing. Same bound as above on okm.size().
void hkdf_expand(const Digest256& prk, std::span<const std::uint8_t> info,
                 std::span<std::uint8_t> okm);

/// One-shot extract+expand.
std::vector<std::uint8_t> hkdf_sha256(std::span<const std::uint8_t> salt,
                                      std::span<const std::uint8_t> ikm,
                                      std::span<const std::uint8_t> info, std::size_t length);

/// Chained labeled derivation — the node walk of crypto::KdfTree. Starting
/// from `master`, each label in turn derives
///   key_{i+1} = HKDF-SHA256(salt = labels[i], ikm = key_i, info = "", 32),
/// so every tree node is a full extract-then-expand away from its parent and
/// siblings under distinct labels are cryptographically independent. With no
/// labels the result is `master` truncated or zero-padded to 32 bytes.
/// Allocates nothing.
Digest256 hkdf_labeled(std::span<const std::uint8_t> master,
                       std::span<const std::span<const std::uint8_t>> labels);

}  // namespace wavekey::crypto
