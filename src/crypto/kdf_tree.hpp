#pragma once

// Per-tag key diversification tree (DESIGN.md §14.1): labeled HKDF-SHA256
// derivation master → tenant → tag_uid → purpose, after the NTAG424
// production pattern — the tree derives every tag's keys on demand and
// stores none of them, and a compromised tag key reveals nothing about its
// siblings (each hop is a full extract-then-expand under a distinct label,
// so inverting a child means inverting HMAC-SHA256). The one cache of
// derived keys sits a layer up (DESIGN.md §14.5): server::GrantIssuer keeps
// each lineage's tag key, its grant_mac leaf and that leaf's HmacKey, and
// OfflineVerifier keeps the HmacKey of each provisioned leaf.
//
// The tree hands out three purpose leaves per tag:
//   grant_mac    — MACs offline grant tokens (server/grants.hpp);
//   session_hmac — per-tag session authentication;
//   audit_seal   — seals the genesis link of that scope's audit chain.
//
// Epoch machinery: the whole tree rotates by chaining the master forward —
// master_{e+1} = HKDF(salt = "wavekey-kdf-rotate" ‖ e+1, ikm = master_e) —
// the same forward-only discipline as KeyVault's derive_rotated_key, so a
// compromised current master never reveals an earlier epoch's tree.
// *Per-tag* lineage rotation deliberately lives one layer up
// (server::GrantIssuer chains derive_rotated_key on the tag key), so the
// crypto layer stays stateless.
//
// Thread-safety: rotate_master() is the only mutator; confine it, or wrap
// the tree in the caller's lock (GrantIssuer does). Derivations are const
// and safe concurrently between mutations.

#include <cstdint>
#include <span>

#include "crypto/sha256.hpp"

namespace wavekey::crypto {

/// Purpose leaf of a tag's subtree. Values are wire/label-stable.
enum class KeyPurpose : std::uint8_t {
  kGrantMac = 1,     ///< MACs offline grant tokens
  kSessionHmac = 2,  ///< per-tag session authentication
  kAuditSeal = 3,    ///< seals an audit-chain genesis link
};

/// Stable derivation label (and human-readable name) of a purpose.
const char* key_purpose_label(KeyPurpose purpose);

class KdfTree {
 public:
  /// Builds the tree root from `master` at `master_epoch` (the epoch is part
  /// of the root label, so two epochs never share any derived key).
  explicit KdfTree(std::span<const std::uint8_t> master, std::uint32_t master_epoch = 0);

  std::uint32_t master_epoch() const { return epoch_; }

  /// Advances the whole tree one epoch (see header comment). Every derived
  /// key changes; there is no way back.
  void rotate_master();

  /// Tenant-level intermediate key.
  Digest256 tenant_key(std::uint64_t tenant_id) const;

  /// Epoch-0 tag key: the root of one tag's lineage. Per-tag rotation chains
  /// forward from this via server::derive_rotated_key.
  Digest256 tag_key(std::uint64_t tenant_id, std::uint64_t tag_uid) const;

  /// Purpose leaf under an explicit (possibly lineage-rotated) tag key.
  static Digest256 purpose_key(const Digest256& tag_key, KeyPurpose purpose);

  /// Convenience: epoch-0 purpose leaf straight from the tree.
  Digest256 purpose_key(std::uint64_t tenant_id, std::uint64_t tag_uid,
                        KeyPurpose purpose) const;

 private:
  Digest256 master_{};  ///< chained master at epoch_ (not the caller's input)
  Digest256 root_{};    ///< labeled root: hkdf_labeled(master_, root-label(epoch_))
  std::uint32_t epoch_ = 0;

  void derive_root();
};

}  // namespace wavekey::crypto
