#pragma once

// Append-only, hash-chained audit log (DESIGN.md §14.3): every grant
// issuance, offline verification verdict, rotation, revocation, and
// vault-side access decision is serialized into a record and folded into a
// per-shard SHA-256 hash chain
//
//   h_{-1} = HMAC-SHA256(seal_key, "wavekey-audit-genesis" || le64(shard))
//   h_i    = SHA256(h_{i-1} || record_i)
//
// The keyed genesis means an attacker who can rewrite the whole backing
// store still cannot re-root a forged chain without the seal key; the plain
// SHA-256 links (SHA-NI dispatched via crypto::Sha256) keep the steady-state
// append cost to one hash over 32 + 42 bytes (two compressions). Records are
// encoded on the stack and stored inline, so an append allocates only when
// the shard's vectors grow.
//
// Verification comes in two strengths:
//  - verify_head: O(1) — recompute h_n from the cached h_{n-1} and the last
//    record; this is what the hot path asserts after every append.
//  - verify_range: O(range) fsck — re-walk the chain from a trusted prefix
//    and report the FIRST index whose stored link disagrees, so a flipped
//    byte anywhere in the record stream is pinpointed, not just detected.
//
// Chain heads (count, hash) cross-link into ClusterResponse so gateways can
// detect a node that lost (or rewrote) its log across a crash: a fresh chain
// cannot reproduce a previously observed head at the same count.
//
// Thread-safety: per-shard mutex; appends to distinct shards proceed in
// parallel. Records route to shards by tenant id so one tenant's chain is
// one totally-ordered history.

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"
#include "server/access_protocol.hpp"

namespace wavekey::server {

/// What happened — one byte on the record wire.
enum class AuditKind : std::uint8_t {
  kIssue = 1,        ///< GrantIssuer minted an offline token
  kIssueRefused = 2, ///< issuance refused (revoked lineage)
  kVerify = 3,       ///< OfflineVerifier verdict on a presented token
  kRotate = 4,       ///< per-tag key lineage advanced an epoch
  kRevoke = 5,       ///< tag lineage revoked
  kProvision = 6,    ///< tag provisioned onto an issuer/verifier
  kHandoff = 7,      ///< counter/lineage state exported or imported
  kAccess = 8,       ///< vault-cluster online access decision
};

const char* audit_kind_name(AuditKind kind);

/// One chain entry. Fixed layout, 42 bytes serialized:
/// u8 kind | le64 tenant | le64 tag | le64 actuator | le64 counter |
/// u8 status | le64 time_us.
struct AuditRecord {
  static constexpr std::size_t kBytes = 42;

  AuditKind kind = AuditKind::kAccess;
  std::uint64_t tenant_id = 0;
  std::uint64_t tag_uid = 0;      ///< tag / session the event concerns
  std::uint64_t actuator_id = 0;  ///< 0 when not actuator-scoped
  std::uint64_t counter = 0;      ///< grant counter / request counter
  AccessStatus status = AccessStatus::kGranted;
  std::uint64_t time_us = 0;  ///< virtual-clock microseconds

  std::array<std::uint8_t, kBytes> serialize() const;
};

/// Chain head: how many records, and the running hash after the last one.
/// Equality of two heads at the same count is equality of the full prefix
/// (second-preimage resistance of SHA-256).
struct AuditHead {
  std::uint64_t count = 0;
  crypto::Digest256 hash{};  ///< genesis HMAC when count == 0
};

class AuditLog {
 public:
  struct Config {
    std::size_t shards = 1;
    crypto::Digest256 seal_key{};  ///< keys the genesis link per shard
  };

  explicit AuditLog(Config config);

  std::size_t shards() const { return shards_.size(); }

  /// Appends, routing to shard (tenant_id % shards). O(1): one SHA-256 over
  /// (32 + 42) bytes. Returns the new head of that shard.
  AuditHead append(const AuditRecord& record);

  /// Appends to an explicit shard (cluster nodes use node-id routing).
  AuditHead append_to(std::size_t shard, const AuditRecord& record);

  AuditHead head(std::size_t shard) const;
  std::uint64_t size(std::size_t shard) const;
  /// Total records across all shards.
  std::uint64_t total_size() const;

  /// O(1) head check: recomputes the last link from its predecessor and the
  /// stored record bytes. True for an empty shard.
  bool verify_head(std::size_t shard) const;

  /// O(to - from) fsck: re-walks links [from, to) against the stored chain
  /// and returns the index of the FIRST record whose link disagrees, or
  /// nullopt if the range is intact. `to` is clamped to size(shard).
  std::optional<std::uint64_t> verify_range(std::size_t shard, std::uint64_t from,
                                            std::uint64_t to) const;

  /// Raw record bytes (copy) — external verifiers / tests.
  Bytes record_bytes(std::size_t shard, std::uint64_t index) const;

  /// Test hook: XORs one byte of a stored record in place, leaving the
  /// stored links untouched — exactly the tamper verify_range must pinpoint.
  void corrupt_record_for_test(std::size_t shard, std::uint64_t index,
                               std::size_t offset, std::uint8_t xor_mask);

 private:
  struct Shard {
    mutable std::mutex mu;
    crypto::Digest256 genesis{};
    std::vector<std::array<std::uint8_t, AuditRecord::kBytes>> records;  // record i, inline
    std::vector<crypto::Digest256> links;  // h_i
  };

  static crypto::Digest256 link(const crypto::Digest256& prev,
                                std::span<const std::uint8_t> record);

  std::vector<Shard> shards_;
};

}  // namespace wavekey::server
