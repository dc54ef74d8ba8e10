#pragma once

// Offline-grant subsystem (DESIGN.md §14): signed capabilities an actuator
// can verify with NO vault connectivity.
//
// The vault-side GrantIssuer mints compact GrantTokens under each tag's
// diversified grant_mac key (crypto::KdfTree: master → tenant → tag →
// purpose), so compromising one actuator's verification keys exposes one
// tag's lineage, never the fleet. Tokens carry a per-(tenant, actuator)
// strictly-monotonic counter; the disconnected OfflineVerifier embedded in
// the actuator side of the reader gateway accepts each counter at most once
// (counter_advance, replay_window.hpp) and maps every failure mode to a
// distinct AccessStatus:
//
//   parse failure        -> kMalformed        wrong actuator   -> kWrongScope
//   unknown tag          -> kUnknownSession   stale key epoch  -> kStaleEpoch
//   bad HMAC             -> kBadMac           revoked lineage  -> kRevoked
//   expired (virt clock) -> kExpired          scope not allowed-> kWrongScope
//   counter reuse        -> kReplay           counter regressed-> kCounterRollback
//
// MAC verification runs BEFORE any counter-state mutation, so forged tokens
// cannot burn counters. Counter state exports/imports for failover handoff,
// mirroring KeyVault::export_sessions: a replacement issuer or verifier
// continues the stream with zero reuse.
//
// Per-tag key lineages rotate by chaining server::derive_rotated_key on the
// tag key — epoch e+1 is a one-way function of epoch e — reusing KeyVault's
// rotation machinery verbatim so both subsystems share one forward-secrecy
// argument.
//
// Every issuance, refusal, rotation, revocation, and verification verdict
// appends to the wired AuditLog (audit.hpp) when one is attached.
//
// Thread-safety: GrantIssuer and OfflineVerifier each hold one mutex over
// their maps; all public methods are safe to call concurrently.

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/kdf_tree.hpp"
#include "server/access_protocol.hpp"
#include "server/audit.hpp"

namespace wavekey::server {

/// Compact signed capability — protocol::MessageType::kGrantToken on the
/// wire. 81 bytes serialized: the 49-byte MAC input (type tag and the fields
/// below, little-endian) followed by the HMAC-SHA256 (truncated to
/// kMacBytes = 32, i.e. full width) under the tag's grant_mac purpose key.
struct GrantToken {
  static constexpr std::size_t kMacInputBytes = 49;

  std::uint64_t tenant_id = 0;
  std::uint64_t tag_uid = 0;
  std::uint64_t actuator_id = 0;  ///< the one actuator this token opens
  std::uint64_t counter = 0;      ///< per-(tenant, actuator) monotonic, mints from 1
  std::uint32_t scope = 0;        ///< bitmask of requested capabilities
  std::uint32_t key_epoch = 0;    ///< tag-lineage epoch the MAC key belongs to
  std::uint64_t expires_us = 0;   ///< virtual-clock microseconds

  std::array<std::uint8_t, kMacBytes> mac{};

  Bytes serialize() const;
  /// Every field before the MAC, encoded on the stack.
  std::array<std::uint8_t, kMacInputBytes> mac_input() const;
  /// Throws protocol::WireError on malformed/truncated input.
  static GrantToken parse(std::span<const std::uint8_t> wire);
};

/// Builds a fully-MACed token under `grant_mac_key`.
GrantToken make_grant_token(std::uint64_t tenant_id, std::uint64_t tag_uid,
                            std::uint64_t actuator_id, std::uint64_t counter,
                            std::uint32_t scope, std::uint32_t key_epoch,
                            std::uint64_t expires_us,
                            const crypto::Digest256& grant_mac_key);

/// Constant-time MAC check under the tag's grant_mac key.
bool verify_grant_token_mac(const GrantToken& token, const crypto::Digest256& grant_mac_key);

/// What the vault provisions onto an actuator so its OfflineVerifier can
/// validate tokens for one tag with no connectivity: the current grant_mac
/// purpose leaf (NOT the tag key — the actuator can't derive siblings or
/// other purposes from it) plus the lineage epoch and allowed scope mask.
struct ProvisionedTag {
  std::uint64_t tenant_id = 0;
  std::uint64_t tag_uid = 0;
  crypto::Digest256 grant_mac_key{};
  std::uint32_t key_epoch = 0;
  std::uint32_t allowed_scopes = 0;  ///< bitmask; token scope must be a subset
};

/// Portable issuer state for failover handoff (cluster replica promotion):
/// per-tag lineages and per-actuator counter streams. A replacement issuer
/// importing this continues minting with zero counter reuse.
struct ExportedIssuerState {
  struct Lineage {
    std::uint64_t tenant_id = 0;
    std::uint64_t tag_uid = 0;
    crypto::Digest256 tag_key{};
    std::uint32_t key_epoch = 0;
    bool revoked = false;
  };
  struct CounterStream {
    std::uint64_t tenant_id = 0;
    std::uint64_t actuator_id = 0;
    std::uint64_t next_counter = 1;
  };
  std::vector<Lineage> lineages;
  std::vector<CounterStream> counters;
};

/// Vault-side mint. Owns the KdfTree and the per-tag lineage map. Each
/// lineage caches its grant_mac leaf and that leaf's HmacKey, refreshed
/// wherever the tag key changes (creation, rotate_tag, import_state), so
/// issue() costs one two-compression MAC instead of a KDF hop plus a MAC.
class GrantIssuer {
 public:
  /// @param master      KdfTree master secret.
  /// @param audit       optional audit chain; issuance/rotation/revocation
  ///                    events append to it (not owned, must outlive).
  explicit GrantIssuer(std::span<const std::uint8_t> master, AuditLog* audit = nullptr);

  /// Mints a token for (tenant, tag) opening `actuator` with `scope`,
  /// expiring `ttl_s` virtual seconds from `now_s`. nullopt if the tag's
  /// lineage is revoked. Counter allocation and MAC are atomic under the
  /// issuer lock — concurrent issuance never reuses a counter.
  std::optional<GrantToken> issue(std::uint64_t tenant_id, std::uint64_t tag_uid,
                                  std::uint64_t actuator_id, std::uint32_t scope,
                                  double ttl_s, double now_s);

  /// Current provisioning material for a tag (creates the epoch-0 lineage on
  /// first touch).
  ProvisionedTag provision(std::uint64_t tenant_id, std::uint64_t tag_uid,
                           std::uint32_t allowed_scopes);

  /// Advances one tag's lineage one epoch (derive_rotated_key chain).
  /// Returns the new epoch, or nullopt if the lineage is revoked.
  std::optional<std::uint32_t> rotate_tag(std::uint64_t tenant_id, std::uint64_t tag_uid);

  /// Revokes a tag's lineage; subsequent issue() calls refuse. Returns false
  /// if the lineage was already revoked.
  bool revoke_tag(std::uint64_t tenant_id, std::uint64_t tag_uid);

  /// (tenant, tag) pairs currently revoked — what heals propagate to
  /// verifiers.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> revoked_tags() const;

  /// Failover handoff, mirroring KeyVault::export_sessions / import_sessions.
  ExportedIssuerState export_state() const;
  void import_state(const ExportedIssuerState& state);

  struct Stats {
    std::uint64_t issued = 0;
    std::uint64_t refused = 0;
    std::uint64_t rotations = 0;
    std::uint64_t revocations = 0;
  };
  Stats stats() const;

 private:
  struct Lineage {
    /// Derives and caches the grant_mac leaf of `tag_key` and its HmacKey.
    Lineage(const crypto::Digest256& tag_key, std::uint32_t key_epoch, bool revoked);

    crypto::Digest256 tag_key;
    crypto::Digest256 grant_mac;  ///< KdfTree::purpose_key(tag_key, kGrantMac)
    crypto::HmacKey grant_mac_key;  ///< midstates of grant_mac
    std::uint32_t key_epoch;
    bool revoked;
  };

  using TagId = std::pair<std::uint64_t, std::uint64_t>;       // (tenant, tag)
  using StreamId = std::pair<std::uint64_t, std::uint64_t>;    // (tenant, actuator)

  Lineage& lineage_locked(std::uint64_t tenant_id, std::uint64_t tag_uid);
  void audit_event(AuditKind kind, std::uint64_t tenant_id, std::uint64_t tag_uid,
                   std::uint64_t actuator_id, std::uint64_t counter, AccessStatus status);

  mutable std::mutex mu_;
  crypto::KdfTree tree_;
  std::map<TagId, Lineage> lineages_;
  std::map<StreamId, std::uint64_t> next_counter_;  // next value to mint (from 1)
  AuditLog* audit_ = nullptr;
  Stats stats_;
};

/// Actuator-side, vault-free verifier. Holds only the HmacKey of each
/// provisioned grant_mac leaf and per-tenant counter high-waters; validates
/// tokens while the cluster is black-holed.
class OfflineVerifier {
 public:
  explicit OfflineVerifier(std::uint64_t actuator_id, AuditLog* audit = nullptr);

  std::uint64_t actuator_id() const { return actuator_id_; }

  /// Installs (or refreshes, e.g. after a lineage rotation) a tag's
  /// verification material. A revoked tag stays revoked: re-provisioning
  /// replaces its key, epoch and scopes, never its revocation.
  void provision(const ProvisionedTag& tag);

  /// Marks a tag revoked (heal-time propagation from the issuer). Sticky
  /// across later provision() calls.
  void revoke(std::uint64_t tenant_id, std::uint64_t tag_uid);

  /// Verifies a serialized GrantToken at virtual time `now_s`. Every
  /// rejection mode maps to a distinct AccessStatus (header comment);
  /// kGranted advances the counter high-water. Never throws.
  AccessStatus verify(std::span<const std::uint8_t> wire, double now_s);

  /// Counter-state handoff: a replacement actuator controller importing
  /// these high-waters rejects exactly the counters this one accepted.
  std::vector<ExportedIssuerState::CounterStream> export_counters() const;
  void import_counters(std::span<const ExportedIssuerState::CounterStream> counters);

  struct Stats {
    std::uint64_t attempts = 0;
    std::uint64_t granted = 0;
    std::array<std::uint64_t, kAccessStatusCount> by_status{};
  };
  Stats stats() const;

 private:
  AccessStatus verify_locked(std::span<const std::uint8_t> wire, double now_s,
                             std::uint64_t& tenant, std::uint64_t& tag, std::uint64_t& counter);

  using TagId = std::pair<std::uint64_t, std::uint64_t>;
  struct TagState {
    crypto::HmacKey grant_mac_key;  ///< midstates of the provisioned leaf
    std::uint32_t key_epoch;
    std::uint32_t allowed_scopes;
    bool revoked;
  };

  mutable std::mutex mu_;
  std::uint64_t actuator_id_;
  std::map<TagId, TagState> tags_;
  std::map<std::uint64_t, std::uint64_t> seen_;  // tenant -> counter high-water
  AuditLog* audit_ = nullptr;
  Stats stats_;
};

}  // namespace wavekey::server
