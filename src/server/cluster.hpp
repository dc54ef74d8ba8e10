#pragma once

// Partitioned vault cluster (DESIGN.md §10): the distributed half of the
// backend. M VaultNodes each hold a KeyVault; sessions hash onto fixed
// partitions (membership.hpp) and every partition has a primary plus one
// replica. The cluster keeps three invariants across node crashes, graceful
// drains, and lossy-WAN retries:
//
//  * zero accepted replays — a grant synchronously mirrors the accepted
//    counter into the replica's replay window, so a promoted replica rejects
//    exactly what the dead primary already accepted;
//  * zero double-grants — the vault authorizes a given (session, counter)
//    at most once cluster-wide; gateway retransmissions are absorbed by a
//    per-partition idempotency cache keyed on the gateway's request id (a
//    retry of a granted request gets the *cached* grant back, it is never
//    re-executed), and that cache migrates with its partition;
//  * every request resolves — a partition whose primary is down answers
//    kUnavailable (typed, immediate) until fail_over() promotes the replica;
//    nothing blocks on a dead node.
//
// Failure model: crash(n) loses node n's memory outright (vault + caches
// wiped) — recovery is fail_over(), which promotes replicas and re-replicates
// from survivors. drain(n) is the graceful path: n's partitions are exported
// and handed to their new owners atomically, so a drain is invisible to
// clients (no unavailability window at all).
//
// Thread-safety: execute/install/revoke take the topology lock shared (the
// per-shard vault locks provide the real parallelism); crash/drain/fail_over
// take it unique, so a topology change is atomic with respect to serving.

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "server/access_protocol.hpp"
#include "server/audit.hpp"
#include "server/key_vault.hpp"
#include "server/membership.hpp"

namespace wavekey::server {

// --- gateway <-> cluster wire envelopes -----------------------------------

/// A span over bytes that outlive it. It binds spans and lvalue buffers as
/// std::span does, but not a temporary Bytes: `req.inner = make_wire();`
/// would dangle once the full-expression ends, so it does not compile.
struct BorrowedBytes : std::span<const std::uint8_t> {
  BorrowedBytes() = default;
  BorrowedBytes(std::span<const std::uint8_t> bytes) : span(bytes) {}
  template <typename Buffer>
    requires std::is_constructible_v<std::span<const std::uint8_t>, Buffer&>
  BorrowedBytes(Buffer& buffer) : span(buffer) {}
  BorrowedBytes(const Bytes&&) = delete;
};

/// Gateway -> cluster. `request_id` is stable across retries of the same
/// client request (the idempotency key); `attempt` is telemetry only and
/// deliberately excluded from dedup decisions. `inner` is a view: on the
/// gateway it aliases the submitted request, after parse() it aliases the
/// parsed buffer, so the envelope is valid only while that buffer is.
struct ClusterRequest {
  std::uint64_t request_id = 0;
  std::uint64_t tenant_id = 0;
  std::uint32_t attempt = 0;
  BorrowedBytes inner;  ///< serialized AccessRequest (opaque here)

  /// One allocation, sized for the envelope plus frame_seal's CRC.
  Bytes serialize() const;
  /// Throws protocol::WireError on malformed input. `inner` aliases `wire`.
  static ClusterRequest parse(std::span<const std::uint8_t> wire);
};

/// Cluster -> gateway. Carries the typed status plus the (possibly MACed)
/// AccessGrant produced by the owning node, and — for executed requests —
/// the audit chain head of the serving node after this decision was logged
/// (audit.hpp). The cross-link lets a gateway detect a node that lost or
/// rewrote its log across a crash: a fresh chain cannot reproduce a
/// previously observed head at the same count. audit_count == 0 means
/// "no audit stamp" (malformed / owner-down responses).
struct ClusterResponse {
  std::uint64_t request_id = 0;
  AccessStatus status = AccessStatus::kMalformed;
  Bytes grant_wire;
  std::uint64_t audit_count = 0;     ///< serving node's chain length after logging
  crypto::Digest256 audit_hash{};    ///< chain head hash at that length

  /// One allocation, sized for the envelope plus frame_seal's CRC.
  Bytes serialize() const;
  /// Throws protocol::WireError on malformed input. Copies the grant.
  static ClusterResponse parse(std::span<const std::uint8_t> wire);
};

/// WAN framing: payload || crc32(payload). The CRC defends against channel
/// noise (FaultyChannel bit flips), not adversaries — tampering is caught
/// end-to-end by the AccessRequest/AccessGrant HMACs inside the envelope.
/// frame_seal appends the CRC of `buf`'s contents to `buf` in place.
void frame_seal(Bytes& buf);

/// Integrity-checks and strips the frame: the payload subspan of `wire` (no
/// copy), or nullopt on truncation/CRC mismatch — corruption is expected
/// channel behaviour, never an error. The span aliases `wire`.
std::optional<std::span<const std::uint8_t>> unframe_view(std::span<const std::uint8_t> wire);

// --- cluster ----------------------------------------------------------------

enum class NodeState : std::uint8_t {
  kUp = 0,
  kDown = 1,  ///< crashed (memory lost) or drained (memory handed off)
};

struct ClusterConfig {
  std::uint32_t nodes = 4;       ///< vault nodes (>= 1)
  std::uint32_t partitions = 64; ///< fixed partition count
  VaultConfig vault;             ///< per-node vault configuration
  crypto::Digest256 audit_seal{};  ///< keys every node's genesis links
};

/// Monotonic counters; snapshot under one lock so totals are consistent.
struct ClusterStats {
  std::uint64_t executed = 0;        ///< envelopes that reached a live primary
  std::uint64_t vault_grants = 0;    ///< unique grants (dedup hits excluded)
  std::uint64_t dedup_hits = 0;      ///< retries answered from the cache
  std::uint64_t unavailable = 0;     ///< envelopes refused: owner down
  std::uint64_t crashes = 0;
  std::uint64_t drains = 0;
  std::uint64_t failovers = 0;
  std::uint64_t partitions_moved = 0;   ///< ownership changes across rebuilds
  std::uint64_t sessions_migrated = 0;  ///< exported+imported session states
};

class VaultCluster {
 public:
  explicit VaultCluster(const ClusterConfig& config);
  ~VaultCluster();

  VaultCluster(const VaultCluster&) = delete;
  VaultCluster& operator=(const VaultCluster&) = delete;

  /// Seconds since construction on the steady clock — the vault time axis.
  double now_s() const;

  /// Installs a session key on the partition's primary and replica. False if
  /// the key has the wrong width or the primary is down (install is not
  /// retried internally — the pairing tier owns that policy).
  bool install(std::uint64_t session_id, std::span<const std::uint8_t> key);

  /// Revokes on every live owner of the session's partition.
  bool revoke(std::uint64_t session_id);

  /// Serves one gateway envelope: route by partition, dedup by request id,
  /// authorize on the primary, mirror the accepted counter + cached response
  /// to the replica. kUnavailable if the owning primary is down; kMalformed
  /// if the inner AccessRequest does not parse.
  ClusterResponse execute(const ClusterRequest& request);

  /// Hard-kills a node: memory wiped, state kDown, partitions NOT reassigned
  /// (that is fail_over's job — the gap between the two is the real
  /// unavailability window a failure detector would leave).
  void crash(NodeId node);

  /// Promotes replicas for every partition whose primary is down and
  /// re-replicates from survivors so every partition is two-copy again.
  void fail_over();

  /// Graceful drain: exports the node's partitions to their new owners
  /// (session state, replay windows, idempotency cache), then takes the node
  /// down. Atomic under the topology lock — clients never see a gap.
  void drain(NodeId node);

  NodeState node_state(NodeId node) const;
  /// The node's audit chain (nullptr for an out-of-range id). The log is
  /// reset on crash — a restarted node starts a fresh chain, which is what
  /// makes truncation detectable against previously cross-linked heads.
  const AuditLog* audit_log(NodeId node) const;
  std::uint32_t nodes() const;
  std::uint32_t partitions() const;
  /// Current owners of the partition serving `session_id` (test/bench use).
  PartitionOwners owners_of(std::uint64_t session_id) const;
  /// Map version (bumps on fail_over/drain rebuilds).
  std::uint64_t map_version() const;

  ClusterStats stats() const;

 private:
  struct Node;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wavekey::server
