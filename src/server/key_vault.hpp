#pragma once

// Sharded session-key vault (DESIGN.md §9.1, data plane rebuilt in §13):
// the backend's store of keys established by pairing. Sessions hash onto N
// independently-locked shards; each shard is a runtime::FlatMap — a
// SwissTable-style open-addressing table with an intrusive index-based LRU
// — plus a runtime::TimerWheel of session ids on 10 ms ticks for TTL
// expiry (DESIGN.md §13.3). The vault is bounded
// (capacity/N entries per shard, least-recently-used evicted first) and
// resident memory tracks *live* sessions: expired entries are reclaimed by
// purge_expired() in O(expired), not only when they happen to be touched.
//
// Shard count is rounded UP to a power of two so routing is a mask, not a
// modulo: shard = (splitmix64(id) >> 32) & (shards-1). The shard index is
// drawn from bits 32.. of the same mix the FlatMap probes with (group bits
// 7.., tag bits 57..) — disjoint ranges, so per-shard slot distribution
// stays uniform. shards() reports the rounded value.
//
// Authorization (each step a distinct AccessStatus):
//   lookup -> TTL -> revoked -> epoch -> HMAC -> replay window -> granted.
// The MAC is checked BEFORE the replay window is advanced so forged
// requests can never burn counters (replay_window.hpp). The HMAC — the
// single most expensive step — is computed OUTSIDE the shard lock: the lock
// is held once to run the pre-MAC checks and snapshot (key, version), and
// once to re-validate the per-entry version counter and commit. Any
// concurrent rotate/revoke/install/import bumps the version, forcing a
// bounded retry; after kMaxOptimisticRetries lost races the same checks
// and commit run with the HMAC under the lock. Either way verify+mark is
// one atomic decision against one entry state.
//
// Time is caller-supplied (seconds on any monotonic axis): tests drive the
// TTL boundary deterministically, the AccessServer feeds its steady-clock.
//
// Thread-safety: every public method may be called concurrently from any
// thread; each takes one shard mutex at a time (stats use atomics).

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "crypto/hmac.hpp"
#include "numeric/bitvec.hpp"
#include "server/access_protocol.hpp"
#include "server/replay_window.hpp"

namespace wavekey::server {

/// Session keys are fixed 256-bit values (the paper's l_k).
using SessionKey = std::array<std::uint8_t, 32>;

struct VaultConfig {
  std::size_t shards = 8;       ///< rounded up to a power of two (>= 1)
  std::size_t capacity = 4096;  ///< total entries, split across shards
  double ttl_s = 300.0;         ///< entry lifetime from install/rotate
  std::size_t replay_window_bits = 128;
};

/// Counters are monotonic; resident_entries is a point-in-time gauge.
struct VaultStats {
  std::uint64_t installs = 0;
  std::uint64_t rotations = 0;
  std::uint64_t revocations = 0;
  std::uint64_t lru_evictions = 0;
  std::uint64_t ttl_evictions = 0;   ///< expired entries reclaimed (lazy + sweep)
  std::uint64_t purged_expired = 0;  ///< subset of ttl_evictions reclaimed by
                                     ///< the purge_expired() wheel sweep
  std::uint64_t resident_entries = 0;  ///< entries currently resident
  std::uint64_t optimistic_verifies = 0;  ///< HMACs computed outside the lock
  std::uint64_t version_retries = 0;   ///< optimistic re-validations that lost
                                       ///< a race and retried
  std::uint64_t locked_fallbacks = 0;  ///< authorizes that exhausted their
                                       ///< retries and verified under the lock
};

/// Deterministic client/server-shared rotation schedule: the key of epoch
/// `new_epoch` is HKDF-SHA256(salt = "wavekey-vault-rotate" || new_epoch,
/// ikm = old_key, info = session_id). Both sides can advance epochs in
/// lockstep without another key exchange.
SessionKey derive_rotated_key(const SessionKey& old_key, std::uint64_t session_id,
                              std::uint32_t new_epoch);

/// One session's complete state as shipped between vault nodes during
/// replica handoff (src/server/cluster.*). The replay window rides along:
/// a promoted replica must reject exactly the counters the failed primary
/// already accepted, or a crash would reopen the replay surface.
struct ExportedSession {
  std::uint64_t session_id = 0;
  SessionKey key{};
  std::uint32_t epoch = 0;
  double expires_at_s = 0.0;
  bool revoked = false;
  ReplayWindow::Snapshot window;
};

class KeyVault {
 public:
  explicit KeyVault(const VaultConfig& config);
  ~KeyVault();

  /// Installs (or replaces) the key for a session at epoch 0 with a fresh
  /// TTL and replay window. Keys shorter/longer than 32 bytes are rejected
  /// (returns false). May LRU-evict another entry of the same shard.
  bool install(std::uint64_t session_id, std::span<const std::uint8_t> key, double now_s);
  /// BitVec convenience for the pairing handoff (must be >= 256 bits; the
  /// first 256 are used).
  bool install(std::uint64_t session_id, const BitVec& key, double now_s);

  /// Rotates the session to the next epoch (derive_rotated_key), refreshing
  /// the TTL and resetting the replay window. Returns the new epoch, or
  /// nullopt if the session is absent, expired, or revoked.
  std::optional<std::uint32_t> rotate(std::uint64_t session_id, double now_s);

  /// Marks the session revoked; subsequent requests get kRevoked (until the
  /// tombstone ages out by TTL or LRU pressure). Returns false if absent.
  bool revoke(std::uint64_t session_id);

  /// Full request authorization (see header comment for lock discipline).
  /// `mac_input` must be the bytes req.mac covers: req.mac_input(), or — the
  /// serving path's zero-copy form — the received wire without its last
  /// kMacBytes (equal for any wire that parses; AccessRequest::mac_input).
  /// On kGranted fills `key_out` (if non-null) with the epoch key, and
  /// `schedule_out` (if non-null) with the HmacKey the MAC was verified
  /// with, so the caller can MAC the grant without building the key
  /// schedule again: on the optimistic path it is the schedule the version
  /// re-check validated, on the locked fallback the one built under the
  /// lock. Neither is touched on any other status.
  AccessStatus authorize(const AccessRequest& req, std::span<const std::uint8_t> mac_input,
                         double now_s, SessionKey* key_out,
                         std::optional<crypto::HmacKey>* schedule_out = nullptr);

  /// Sweeps the per-shard timer wheels, reclaiming every session whose TTL
  /// passed by `now_s` — including sessions that were never touched after
  /// expiry, which the lazy on-access reap alone would leak until LRU
  /// pressure. O(expired). Returns the number reclaimed (counted in both
  /// ttl_evictions and purged_expired). Called from the AccessServer's
  /// submit-path tick and from bench_vault.
  std::size_t purge_expired(double now_s);

  /// Trusted intra-cluster replication: marks `counter` seen in the session's
  /// replay window WITHOUT a MAC check — the primary already verified the
  /// request; this mirrors the accepted counter onto the replica so a later
  /// promotion cannot re-accept it. Never exposed on the client-facing path.
  /// Returns false if the session is absent or revoked.
  bool note_seen(std::uint64_t session_id, std::uint64_t counter);

  /// Snapshot of every session matching `pred` (id → include?): the export
  /// half of partition handoff. Tombstones and expired entries are included
  /// verbatim — migration must not resurrect or silently drop either. Each
  /// shard is emitted LRU-oldest-first, so importing in order reproduces
  /// the exact eviction order on the receiving node.
  std::vector<ExportedSession> export_sessions(
      const std::function<bool(std::uint64_t)>& pred) const;

  /// Upserts exported sessions, preserving epoch / TTL / revocation /
  /// replay-window state exactly (unlike install, which starts fresh), and
  /// re-arming TTL wheels from the preserved deadlines. May LRU-evict under
  /// capacity pressure. Returns the number imported.
  std::size_t import_sessions(std::span<const ExportedSession> sessions);

  /// Current key of a live (non-expired, non-revoked) session — the client
  /// side of tests/benches uses this to build requests after rotation.
  std::optional<SessionKey> current_key(std::uint64_t session_id, double now_s) const;
  /// Current epoch of a live session.
  std::optional<std::uint32_t> current_epoch(std::uint64_t session_id, double now_s) const;

  std::size_t size() const;  ///< live + tombstoned entries across all shards
  std::size_t shards() const { return shards_.size(); }
  std::size_t capacity_per_shard() const { return per_shard_capacity_; }
  VaultStats stats() const;

  /// Heap bytes owned by the session store (all shards' FlatMap arrays,
  /// resident entries' out-of-line replay-window words, wheel slots and
  /// late-arm lists); the bytes/session axis of bench_vault.
  std::size_t memory_bytes() const;

 private:
  // Per-shard machinery, defined in key_vault.cpp.
  struct Entry;
  struct Shard;

  Shard& shard_for(std::uint64_t session_id);
  const Shard& shard_for(std::uint64_t session_id) const;

  /// Caller holds the shard lock. Erases + counts a lazy TTL eviction if the
  /// entry at `idx` expired; returns true if it did.
  bool reap_if_expired(Shard& shard, std::uint32_t idx, double now_s);
  void evict_for_capacity(Shard& shard);

  VaultConfig config_;
  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> installs_{0};
  std::atomic<std::uint64_t> rotations_{0};
  std::atomic<std::uint64_t> revocations_{0};
  std::atomic<std::uint64_t> lru_evictions_{0};
  std::atomic<std::uint64_t> ttl_evictions_{0};
  std::atomic<std::uint64_t> purged_expired_{0};
  std::atomic<std::uint64_t> resident_entries_{0};
  std::atomic<std::uint64_t> optimistic_verifies_{0};
  std::atomic<std::uint64_t> version_retries_{0};
  std::atomic<std::uint64_t> locked_fallbacks_{0};
};

}  // namespace wavekey::server
