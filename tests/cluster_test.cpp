// Tests of the distributed backend tier (DESIGN.md §10): consistent-hash
// partition placement (minimal movement across node removal), the CRC'd
// gateway wire envelopes (malformed-input fuzz: typed errors only, never a
// grant), VaultCluster failure semantics — crash leaves a typed
// kUnavailable window and failover must not reopen the replay surface;
// drain hands partitions off with no client-visible gap — and the
// ReaderGateway retry loop (idempotent retries, every request resolves).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "crypto/drbg.hpp"
#include "numeric/rng.hpp"
#include "server/cluster.hpp"
#include "server/gateway.hpp"
#include "server/membership.hpp"

using namespace wavekey;
using namespace wavekey::server;
using protocol::Bytes;
using protocol::WireError;

namespace {

SessionKey random_key(crypto::Drbg& rng) {
  SessionKey key{};
  rng.random_bytes(key);
  return key;
}

std::array<std::uint8_t, kNonceBytes> nonce_from(std::uint64_t v) {
  std::array<std::uint8_t, kNonceBytes> nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i)
    nonce[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return nonce;
}

/// Serialized well-formed AccessRequest for (sid, counter) under `key`.
Bytes request_wire(std::uint64_t sid, std::uint64_t counter, const SessionKey& key) {
  return make_access_request(sid, 0, counter, nonce_from(counter), {0xD0}, key).serialize();
}

// `inner` borrows: it binds lvalue buffers and spans (parse assigns a
// subspan), never a temporary Bytes, which would dangle once the statement
// that assigned it ends.
using InnerBytes = decltype(ClusterRequest::inner);
static_assert(std::is_assignable_v<InnerBytes&, Bytes&>);
static_assert(std::is_assignable_v<InnerBytes&, const Bytes&>);
static_assert(std::is_assignable_v<InnerBytes&, std::span<const std::uint8_t>>);
static_assert(!std::is_assignable_v<InnerBytes&, Bytes>);
static_assert(!std::is_constructible_v<InnerBytes, Bytes>);

/// Envelope whose `inner` aliases `inner`: keep the bytes alive while the
/// envelope is used (a temporary lives to the end of the full expression).
ClusterRequest envelope(std::uint64_t request_id, const Bytes& inner) {
  ClusterRequest req;
  req.request_id = request_id;
  req.tenant_id = 1;
  req.inner = inner;
  return req;
}

/// `payload` || crc32 — the frame the gateway puts on the WAN.
Bytes framed(Bytes payload) {
  frame_seal(payload);
  return payload;
}

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<NodeId> node_ids(std::uint32_t n) {
  std::vector<NodeId> ids;
  for (NodeId id = 0; id < n; ++id) ids.push_back(id);
  return ids;
}

}  // namespace

// --- membership / consistent hashing ---------------------------------------

TEST(PartitionMapTest, EveryPartitionGetsDistinctLivePrimaryAndReplica) {
  PartitionMap map(64, 64);
  map.rebuild(node_ids(4));
  for (std::uint32_t p = 0; p < map.partitions(); ++p) {
    const PartitionOwners o = map.owners(p);
    EXPECT_LT(o.primary, 4u);
    EXPECT_LT(o.replica, 4u);
    EXPECT_NE(o.primary, o.replica);
  }
}

TEST(PartitionMapTest, PlacementIsDeterministic) {
  PartitionMap a(64, 64), b(64, 64);
  a.rebuild(node_ids(4));
  b.rebuild(node_ids(4));
  for (std::uint32_t p = 0; p < 64; ++p) {
    EXPECT_EQ(a.owners(p).primary, b.owners(p).primary);
    EXPECT_EQ(a.owners(p).replica, b.owners(p).replica);
  }
}

TEST(PartitionMapTest, RemovingANodeOnlyMovesItsOwnPartitions) {
  // The consistent-hash contract: after dropping node 2, every partition
  // that node 2 did not own keeps a bit-identical (primary, replica) pair.
  PartitionMap map(128, 64);
  map.rebuild(node_ids(5));
  std::vector<PartitionOwners> before(map.partitions());
  for (std::uint32_t p = 0; p < map.partitions(); ++p) before[p] = map.owners(p);

  std::vector<NodeId> survivors = {0, 1, 3, 4};
  map.rebuild(survivors);
  std::uint32_t moved = 0, touched = 0;
  for (std::uint32_t p = 0; p < map.partitions(); ++p) {
    const PartitionOwners& old = before[p];
    const PartitionOwners now = map.owners(p);
    EXPECT_NE(now.primary, 2u);
    EXPECT_NE(now.replica, 2u);
    if (old.primary == 2 || old.replica == 2) {
      ++touched;
      continue;
    }
    ++moved;  // counted below as "must be unchanged"
    EXPECT_EQ(now.primary, old.primary) << "partition " << p << " moved needlessly";
    EXPECT_EQ(now.replica, old.replica) << "partition " << p << " moved needlessly";
  }
  EXPECT_GT(touched, 0u);  // node 2 owned something, or the test proves nothing
  EXPECT_GT(moved, 0u);
}

TEST(PartitionMapTest, VersionBumpsPerRebuildAndEmptySetUnowns) {
  PartitionMap map(16, 8);
  const std::uint64_t v0 = map.version();
  map.rebuild(node_ids(2));
  EXPECT_EQ(map.version(), v0 + 1);
  map.rebuild({});
  EXPECT_EQ(map.version(), v0 + 2);
  for (std::uint32_t p = 0; p < map.partitions(); ++p) {
    EXPECT_EQ(map.owners(p).primary, kNoNode);
    EXPECT_EQ(map.owners(p).replica, kNoNode);
  }
}

TEST(PartitionMapTest, SingleNodeClusterHasNoReplica) {
  PartitionMap map(16, 8);
  map.rebuild({NodeId{3}});
  for (std::uint32_t p = 0; p < map.partitions(); ++p) {
    EXPECT_EQ(map.owners(p).primary, 3u);
    EXPECT_EQ(map.owners(p).replica, kNoNode);
  }
}

TEST(PartitionMapTest, PartitionOfIsStableAndInRange) {
  for (const std::uint64_t sid : {0ull, 1ull, 42ull, ~0ull}) {
    const std::uint32_t p = partition_of(sid, 64);
    EXPECT_LT(p, 64u);
    EXPECT_EQ(p, partition_of(sid, 64));  // pure function
  }
  std::set<std::uint32_t> hit;
  for (std::uint64_t sid = 0; sid < 256; ++sid) hit.insert(partition_of(sid, 64));
  EXPECT_GT(hit.size(), 32u);  // splitmix64 mixing spreads sequential ids
}

// --- wire envelopes + CRC framing -------------------------------------------

TEST(ClusterWireTest, RequestAndResponseRoundTrip) {
  const Bytes inner = {1, 2, 3, 4, 5};
  ClusterRequest req = envelope(0xABCDEF0102ull, inner);
  req.attempt = 3;
  const Bytes wire = req.serialize();
  const ClusterRequest back = ClusterRequest::parse(wire);
  EXPECT_EQ(back.request_id, req.request_id);
  EXPECT_EQ(back.tenant_id, req.tenant_id);
  EXPECT_EQ(back.attempt, 3u);
  EXPECT_TRUE(std::ranges::equal(back.inner, inner));
  EXPECT_EQ(back.inner.data(), wire.data() + (wire.size() - inner.size()));  // aliases, no copy

  ClusterResponse resp;
  resp.request_id = 77;
  resp.status = AccessStatus::kUnavailable;
  resp.grant_wire = {9, 9, 9};
  const ClusterResponse rback = ClusterResponse::parse(resp.serialize());
  EXPECT_EQ(rback.request_id, 77u);
  EXPECT_EQ(rback.status, AccessStatus::kUnavailable);
  EXPECT_EQ(rback.grant_wire, resp.grant_wire);
}

TEST(ClusterWireTest, UnknownStatusByteThrows) {
  ClusterResponse resp;
  resp.request_id = 1;
  resp.status = AccessStatus::kGranted;
  Bytes wire = resp.serialize();
  wire[1 + 8] = static_cast<std::uint8_t>(kAccessStatusCount);  // first invalid value
  EXPECT_THROW(ClusterResponse::parse(wire), WireError);
}

TEST(ClusterWireTest, FrameDetectsEveryByteCorruption) {
  const Bytes payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42};
  const Bytes frame = framed(payload);
  ASSERT_EQ(frame.size(), payload.size() + 4);
  const auto unframed = unframe_view(frame);
  ASSERT_TRUE(unframed.has_value());
  EXPECT_TRUE(std::ranges::equal(*unframed, payload));
  EXPECT_EQ(unframed->data(), frame.data());  // aliases, no copy
  for (std::size_t i = 0; i < frame.size(); ++i) {
    Bytes corrupted = frame;
    corrupted[i] ^= 0x01;
    EXPECT_FALSE(unframe_view(corrupted).has_value()) << "byte " << i;
  }
}

TEST(ClusterWireTest, FrameRejectsTruncationAndEmpty) {
  const Bytes frame = framed({1, 2, 3});
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const Bytes cut(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(unframe_view(cut).has_value()) << "kept " << keep;
  }
  const Bytes empty_frame = framed({});
  const auto empty_payload = unframe_view(empty_frame);
  ASSERT_TRUE(empty_payload.has_value());
  EXPECT_TRUE(empty_payload->empty());
}

// Golden frames: serialize() then frame_seal of one fixed envelope each.
// The trailing CRC32 matches Python's zlib.crc32 of the payload, and any
// change to a field's order, width or encoding breaks these.
TEST(ClusterWireTest, GoldenRequestFrame) {
  const Bytes inner = {0x06, 0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F, 0x80, 0xFF};
  ClusterRequest req;
  req.request_id = 0x0123456789ABCDEFull;
  req.tenant_id = 42;
  req.attempt = 3;
  req.inner = inner;
  const char* golden =
      "08efcdab89674523012a00000000000000030000000900000006deadbeef007f80ffdab2a5aa";
  const Bytes frame = framed(req.serialize());
  EXPECT_EQ(hex(frame), golden);

  const auto payload = unframe_view(frame);
  ASSERT_TRUE(payload.has_value());
  const ClusterRequest back = ClusterRequest::parse(*payload);
  EXPECT_EQ(back.request_id, req.request_id);
  EXPECT_EQ(back.tenant_id, 42u);
  EXPECT_EQ(back.attempt, 3u);
  EXPECT_TRUE(std::ranges::equal(back.inner, inner));
}

TEST(ClusterWireTest, GoldenResponseFrame) {
  ClusterResponse resp;
  resp.request_id = 0xFEDCBA9876543210ull;
  resp.status = AccessStatus::kReplay;
  resp.grant_wire = {0x07, 0x11, 0x22, 0x33};
  resp.audit_count = 0x1122334455ull;
  for (std::size_t i = 0; i < resp.audit_hash.size(); ++i)
    resp.audit_hash[i] = static_cast<std::uint8_t>(i * 9 + 1);
  const char* golden =
      "091032547698badcfe0604000000071122335544332211000000010a131c252e374049525b646d"
      "767f88919aa3acb5bec7d0d9e2ebf4fd060f18634f1dac";
  const Bytes frame = framed(resp.serialize());
  EXPECT_EQ(hex(frame), golden);

  const auto payload = unframe_view(frame);
  ASSERT_TRUE(payload.has_value());
  const ClusterResponse back = ClusterResponse::parse(*payload);
  EXPECT_EQ(back.request_id, resp.request_id);
  EXPECT_EQ(back.status, AccessStatus::kReplay);
  EXPECT_EQ(back.grant_wire, resp.grant_wire);
  EXPECT_EQ(back.audit_count, resp.audit_count);
  EXPECT_EQ(back.audit_hash, resp.audit_hash);
}

// --- malformed-input fuzz: typed errors only, never a grant -----------------

namespace {

Bytes mutate_wire(const Bytes& base, Rng& rng) {
  Bytes out = base;
  switch (rng.uniform_u64(4)) {
    case 0:  // truncate
      out.resize(static_cast<std::size_t>(rng.uniform_u64(base.size() + 1)));
      break;
    case 1: {  // flip 1..8 bits
      if (out.empty()) break;
      const std::size_t flips = 1 + rng.uniform_u64(8);
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t bit = rng.uniform_u64(out.size() * 8);
        out[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      break;
    }
    case 2:  // fully random buffer
      out.resize(static_cast<std::size_t>(rng.uniform_u64(300)));
      rng.fill_bytes(out);
      break;
    default:  // append junk
      for (std::size_t i = 0, n = 1 + rng.uniform_u64(32); i < n; ++i)
        out.push_back(static_cast<std::uint8_t>(rng.uniform_u64(256)));
      break;
  }
  return out;
}

}  // namespace

TEST(ClusterFuzz, ClusterRequestParseNeverCrashes) {
  const Bytes base = envelope(123, request_wire(1, 1, SessionKey{})).serialize();
  Rng rng(7001);
  for (int i = 0; i < 1000; ++i) {
    const Bytes mutated = mutate_wire(base, rng);
    try {
      (void)ClusterRequest::parse(mutated);  // parsing garbage is fine; UB is not
    } catch (const WireError&) {
    }
  }
}

TEST(ClusterFuzz, ClusterResponseParseNeverCrashes) {
  ClusterResponse resp;
  resp.request_id = 5;
  resp.status = AccessStatus::kGranted;
  resp.grant_wire = make_access_grant(1, 1, AccessStatus::kGranted, {}).serialize();
  const Bytes base = resp.serialize();
  Rng rng(7002);
  for (int i = 0; i < 1000; ++i) {
    const Bytes mutated = mutate_wire(base, rng);
    try {
      (void)ClusterResponse::parse(mutated);
    } catch (const WireError&) {
    }
  }
}

TEST(ClusterFuzz, UnframeNeverThrowsOnAnyMutation) {
  const Bytes base = framed(envelope(9, {1, 2, 3, 4, 5, 6, 7, 8}).serialize());
  Rng rng(7003);
  for (int i = 0; i < 1000; ++i) {
    const Bytes mutated = mutate_wire(base, rng);
    // The framing layer models channel noise: nullopt, never an exception.
    (void)unframe_view(mutated);
  }
}

TEST(ClusterFuzz, ExecuteOnMutatedEnvelopesYieldsTypedNonGrantsOnly) {
  // End-to-end server-side path under mutation: whatever survives the CRC
  // and the envelope parser must come out as a *typed* status — and a
  // mutated request can never be granted (the inner HMAC no longer binds).
  ClusterConfig config;
  config.nodes = 2;
  config.partitions = 16;
  VaultCluster cluster(config);
  crypto::Drbg drbg(71);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(cluster.install(1, key));

  const Bytes inner = request_wire(1, 1, key);
  const Bytes base = envelope(0xF00D, inner).serialize();
  Rng rng(7004);
  std::uint64_t executed = 0;
  for (int i = 0; i < 1000; ++i) {
    const Bytes mutated = mutate_wire(base, rng);
    if (mutated == base) continue;  // identical bytes are legitimately grantable
    ClusterRequest parsed;
    try {
      parsed = ClusterRequest::parse(mutated);
    } catch (const WireError&) {
      continue;  // typed rejection at the envelope layer
    }
    // A mutation confined to the envelope header leaves the MACed inner
    // request intact — routing it is legitimate. The claim under test is
    // that no *content* mutation ever grants.
    if (std::ranges::equal(parsed.inner, inner)) continue;
    const ClusterResponse resp = cluster.execute(parsed);
    ++executed;
    EXPECT_LT(static_cast<std::size_t>(resp.status), kAccessStatusCount);
    EXPECT_NE(resp.status, AccessStatus::kGranted) << "mutation " << i << " was granted";
  }
  EXPECT_GT(executed, 0u);  // some mutants must reach the vault for this to bite
}

// --- VaultCluster semantics --------------------------------------------------

TEST(VaultClusterTest, GrantsAndDetectsReplaysAcrossTheCluster) {
  ClusterConfig config;
  config.nodes = 4;
  config.partitions = 32;
  VaultCluster cluster(config);
  crypto::Drbg drbg(81);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(cluster.install(7, key));

  const Bytes wire = request_wire(7, 1, key);
  const ClusterResponse first = cluster.execute(envelope(100, wire));
  ASSERT_EQ(first.status, AccessStatus::kGranted);
  // The grant is MACed under the session key, end to end.
  EXPECT_TRUE(verify_access_grant(AccessGrant::parse(first.grant_wire), key));

  // Same bytes under a NEW request id: a true replay, not a retry.
  EXPECT_EQ(cluster.execute(envelope(101, wire)).status, AccessStatus::kReplay);
  // Fresh counter: business as usual.
  EXPECT_EQ(cluster.execute(envelope(102, request_wire(7, 2, key))).status,
            AccessStatus::kGranted);
}

TEST(VaultClusterTest, RetriedRequestIdIsAnsweredFromTheDedupCache) {
  ClusterConfig config;
  config.nodes = 3;
  VaultCluster cluster(config);
  crypto::Drbg drbg(82);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(cluster.install(9, key));

  const Bytes wire = request_wire(9, 1, key);
  const ClusterResponse first = cluster.execute(envelope(500, wire));
  ASSERT_EQ(first.status, AccessStatus::kGranted);
  // A retransmission (same request id) gets the SAME grant back — not a
  // replay rejection, and crucially not a second execution.
  const ClusterResponse retry = cluster.execute(envelope(500, wire));
  EXPECT_EQ(retry.status, AccessStatus::kGranted);
  EXPECT_EQ(retry.grant_wire, first.grant_wire);
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.vault_grants, 1u);
  EXPECT_EQ(stats.dedup_hits, 1u);
}

TEST(VaultClusterTest, CrashLeavesTypedUnavailabilityUntilFailover) {
  ClusterConfig config;
  config.nodes = 4;
  VaultCluster cluster(config);
  crypto::Drbg drbg(83);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(cluster.install(11, key));

  const NodeId victim = cluster.owners_of(11).primary;
  cluster.crash(victim);
  EXPECT_EQ(cluster.node_state(victim), NodeState::kDown);
  // Partitions are NOT reassigned by crash: the owner is down, the request
  // resolves kUnavailable — typed, immediate, no hang.
  EXPECT_EQ(cluster.execute(envelope(600, request_wire(11, 1, key))).status,
            AccessStatus::kUnavailable);
  cluster.fail_over();
  EXPECT_NE(cluster.owners_of(11).primary, victim);
  EXPECT_EQ(cluster.execute(envelope(601, request_wire(11, 2, key))).status,
            AccessStatus::kGranted);
}

TEST(VaultClusterTest, CrashDoesNotReopenTheReplayWindow) {
  ClusterConfig config;
  config.nodes = 4;
  VaultCluster cluster(config);
  crypto::Drbg drbg(84);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(cluster.install(13, key));

  const Bytes wire = request_wire(13, 1, key);
  ASSERT_EQ(cluster.execute(envelope(700, wire)).status, AccessStatus::kGranted);

  const NodeId victim = cluster.owners_of(13).primary;
  cluster.crash(victim);  // primary's memory (and its replay window) is gone
  cluster.fail_over();
  // The promoted replica mirrored the accepted counter synchronously at
  // grant time: the pre-crash request is STILL a replay.
  EXPECT_EQ(cluster.execute(envelope(701, wire)).status, AccessStatus::kReplay);
  EXPECT_EQ(cluster.execute(envelope(702, request_wire(13, 2, key))).status,
            AccessStatus::kGranted);
}

TEST(VaultClusterTest, CrashedRetryIsAnsweredFromTheMigratedDedupCache) {
  // Grant executes, the response is lost, THEN the primary dies. The retry
  // (same request id) must land on the promoted replica's migrated
  // idempotency record and receive the original grant — not kReplay.
  ClusterConfig config;
  config.nodes = 4;
  VaultCluster cluster(config);
  crypto::Drbg drbg(85);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(cluster.install(17, key));

  const Bytes wire = request_wire(17, 1, key);
  const ClusterResponse original = cluster.execute(envelope(800, wire));
  ASSERT_EQ(original.status, AccessStatus::kGranted);

  cluster.crash(cluster.owners_of(17).primary);
  cluster.fail_over();
  const ClusterResponse retry = cluster.execute(envelope(800, wire));
  EXPECT_EQ(retry.status, AccessStatus::kGranted);
  EXPECT_EQ(retry.grant_wire, original.grant_wire);
  EXPECT_EQ(cluster.stats().vault_grants, 1u);  // still executed exactly once
}

TEST(VaultClusterTest, RevocationSurvivesFailover) {
  ClusterConfig config;
  config.nodes = 4;
  VaultCluster cluster(config);
  crypto::Drbg drbg(86);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(cluster.install(19, key));
  ASSERT_TRUE(cluster.revoke(19));

  cluster.crash(cluster.owners_of(19).primary);
  cluster.fail_over();
  // The tombstone was replicated at revoke time and migrated with the
  // partition: a dead primary must not resurrect a revoked session.
  EXPECT_EQ(cluster.execute(envelope(900, request_wire(19, 1, key))).status,
            AccessStatus::kRevoked);
}

TEST(VaultClusterTest, DrainHandsOffWithNoClientVisibleGap) {
  ClusterConfig config;
  config.nodes = 4;
  config.partitions = 64;
  VaultCluster cluster(config);
  crypto::Drbg drbg(87);

  constexpr std::uint64_t kSessions = 32;
  std::vector<SessionKey> keys;
  for (std::uint64_t sid = 0; sid < kSessions; ++sid) {
    keys.push_back(random_key(drbg));
    ASSERT_TRUE(cluster.install(sid, keys.back()));
  }
  std::uint64_t request_id = 1000;
  for (std::uint64_t sid = 0; sid < kSessions; ++sid)
    ASSERT_EQ(cluster.execute(envelope(++request_id, request_wire(sid, 1, keys[sid]))).status,
              AccessStatus::kGranted);

  const NodeId drained = 2;
  cluster.drain(drained);
  EXPECT_EQ(cluster.node_state(drained), NodeState::kDown);
  EXPECT_EQ(cluster.stats().drains, 1u);

  const std::uint64_t unavailable_before = cluster.stats().unavailable;
  for (std::uint64_t sid = 0; sid < kSessions; ++sid) {
    // Nothing routes to the drained node anymore...
    EXPECT_NE(cluster.owners_of(sid).primary, drained);
    EXPECT_NE(cluster.owners_of(sid).replica, drained);
    // ...replayed pre-drain counters are still replays (windows moved)...
    EXPECT_EQ(cluster.execute(envelope(++request_id, request_wire(sid, 1, keys[sid]))).status,
              AccessStatus::kReplay);
    // ...and fresh traffic grants with zero unavailability.
    EXPECT_EQ(cluster.execute(envelope(++request_id, request_wire(sid, 2, keys[sid]))).status,
              AccessStatus::kGranted);
  }
  EXPECT_EQ(cluster.stats().unavailable, unavailable_before);
}

TEST(VaultClusterTest, ServingRacesTopologyChangesWithoutTornResults) {
  // Four threads hammer execute() while the main thread crashes a node,
  // fails over, then drains another: every response must carry a typed
  // status, and granted responses must carry a verifiable MAC. (TSan runs
  // this in CI; the shared/unique topology lock is the thing under test.)
  ClusterConfig config;
  config.nodes = 4;
  config.partitions = 32;
  VaultCluster cluster(config);
  crypto::Drbg drbg(88);

  constexpr std::uint64_t kSessions = 16;
  std::vector<SessionKey> keys;
  for (std::uint64_t sid = 0; sid < kSessions; ++sid) {
    keys.push_back(random_key(drbg));
    ASSERT_TRUE(cluster.install(sid, keys.back()));
  }

  std::atomic<std::uint64_t> next_id{1};
  std::atomic<bool> bad_status{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t sid = (static_cast<std::uint64_t>(t) * 200 + i) % kSessions;
        const std::uint64_t counter = 2 + static_cast<std::uint64_t>(t) * 200 + i;
        const ClusterResponse resp = cluster.execute(
            envelope(next_id.fetch_add(1), request_wire(sid, counter, keys[sid])));
        if (static_cast<std::size_t>(resp.status) >= kAccessStatusCount) bad_status.store(true);
        if (resp.status == AccessStatus::kGranted &&
            !verify_access_grant(AccessGrant::parse(resp.grant_wire), keys[sid]))
          bad_status.store(true);
      }
    });
  }
  cluster.crash(0);
  cluster.fail_over();
  cluster.drain(1);
  for (auto& t : clients) t.join();
  EXPECT_FALSE(bad_status.load());

  // Quiesced: the two survivors serve everything.
  const std::uint64_t sid = 3;
  EXPECT_EQ(cluster.execute(envelope(next_id.fetch_add(1),
                                     request_wire(sid, 5000, keys[sid])))
                .status,
            AccessStatus::kGranted);
}

// --- ReaderGateway -----------------------------------------------------------

namespace {

struct ResultLog {
  std::mutex mutex;
  std::vector<GatewayResult> results;

  ReaderGateway::Callback recorder() {
    return [this](const GatewayResult& r) {
      std::lock_guard<std::mutex> lock(mutex);
      results.push_back(r);
    };
  }
  std::uint64_t count(AccessStatus status) {
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t n = 0;
    for (const GatewayResult& r : results) n += r.status == status ? 1 : 0;
    return n;
  }
};

}  // namespace

TEST(ReaderGatewayTest, CleanChannelGrantsEverythingExactlyOnce) {
  ClusterConfig cluster_config;
  cluster_config.nodes = 3;
  VaultCluster cluster(cluster_config);
  crypto::Drbg drbg(91);

  constexpr std::uint64_t kSessions = 8;
  std::vector<SessionKey> keys;
  for (std::uint64_t sid = 0; sid < kSessions; ++sid) {
    keys.push_back(random_key(drbg));
    ASSERT_TRUE(cluster.install(sid, keys.back()));
  }

  GatewayConfig gw_config;
  gw_config.gateway_id = 1;
  gw_config.workers = 2;
  ResultLog log;
  std::set<std::uint64_t> ids;
  {
    ReaderGateway gateway(cluster, gw_config);
    for (std::uint64_t i = 0; i < 64; ++i) {
      const std::uint64_t sid = i % kSessions;
      const auto id = gateway.submit(sid, request_wire(sid, 1 + i / kSessions, keys[sid]),
                                     log.recorder());
      ASSERT_TRUE(id.has_value());
      EXPECT_TRUE(ids.insert(*id).second) << "request ids must be unique";
    }
    gateway.finish();
    const GatewayStats stats = gateway.stats();
    EXPECT_EQ(stats.submitted, 64u);
    EXPECT_EQ(stats.resolved, 64u);
    EXPECT_EQ(stats.outcomes[static_cast<std::size_t>(AccessStatus::kGranted)], 64u);
    EXPECT_EQ(stats.attempts, 64u);  // clean channel: one attempt each
  }
  EXPECT_EQ(log.count(AccessStatus::kGranted), 64u);
  EXPECT_EQ(cluster.stats().vault_grants, 64u);
}

TEST(ReaderGatewayTest, SubmitAfterFinishIsRefusedCleanly) {
  ClusterConfig cluster_config;
  cluster_config.nodes = 2;
  VaultCluster cluster(cluster_config);
  ReaderGateway gateway(cluster, GatewayConfig{});
  gateway.finish();
  const Bytes junk = {1, 2, 3};
  EXPECT_FALSE(gateway.submit(1, junk, nullptr).has_value());
  EXPECT_EQ(gateway.stats().submitted, 0u);
}

TEST(ReaderGatewayTest, BlackholeResolvesEveryRequestAsRetryExhausted) {
  ClusterConfig cluster_config;
  cluster_config.nodes = 2;
  VaultCluster cluster(cluster_config);
  crypto::Drbg drbg(92);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(cluster.install(1, key));

  GatewayConfig gw_config;
  gw_config.max_attempts = 3;
  gw_config.backoff_base_s = 0.0;  // keep the test fast
  gw_config.channel.mobile_to_server.loss = 1.0;
  gw_config.channel.server_to_mobile.loss = 1.0;
  ResultLog log;
  ReaderGateway gateway(cluster, gw_config);
  for (std::uint64_t c = 1; c <= 8; ++c)
    ASSERT_TRUE(gateway.submit(1, request_wire(1, c, key), log.recorder()).has_value());
  gateway.finish();

  EXPECT_EQ(log.count(AccessStatus::kRetryExhausted), 8u);
  {
    std::lock_guard<std::mutex> lock(log.mutex);
    for (const GatewayResult& r : log.results) EXPECT_EQ(r.attempts, 3u);
  }
  EXPECT_EQ(cluster.stats().executed, 0u);  // nothing ever arrived
}

TEST(ReaderGatewayTest, DownedPrimaryResolvesTypedUnavailable) {
  ClusterConfig cluster_config;
  cluster_config.nodes = 3;
  VaultCluster cluster(cluster_config);
  crypto::Drbg drbg(93);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(cluster.install(2, key));
  cluster.crash(cluster.owners_of(2).primary);

  GatewayConfig gw_config;
  gw_config.max_attempts = 2;
  gw_config.backoff_base_s = 0.0;
  ResultLog log;
  ReaderGateway gateway(cluster, gw_config);
  ASSERT_TRUE(gateway.submit(2, request_wire(2, 1, key), log.recorder()).has_value());
  gateway.finish();
  // The gateway heard a typed answer (owner down) — that is the final
  // status, distinct from hearing nothing at all.
  EXPECT_EQ(log.count(AccessStatus::kUnavailable), 1u);
  EXPECT_EQ(log.count(AccessStatus::kRetryExhausted), 0u);
}

TEST(ReaderGatewayTest, BackoffPastThirtyTwoAttemptsStaysDefined) {
  // 40 attempts take the capped backoff past attempt 32, where doubling by
  // a 32-bit shift is undefined (the ASan/UBSan leg checks this). A downed
  // owner keeps every attempt answering kUnavailable, so all 40 are spent.
  ClusterConfig cluster_config;
  cluster_config.nodes = 3;
  VaultCluster cluster(cluster_config);
  crypto::Drbg drbg(96);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(cluster.install(2, key));
  cluster.crash(cluster.owners_of(2).primary);

  GatewayConfig gw_config;
  gw_config.max_attempts = 40;
  gw_config.backoff_base_s = 0.0;
  ResultLog log;
  ReaderGateway gateway(cluster, gw_config);
  ASSERT_TRUE(gateway.submit(2, request_wire(2, 1, key), log.recorder()).has_value());
  gateway.finish();
  EXPECT_EQ(log.count(AccessStatus::kUnavailable), 1u);
  std::lock_guard<std::mutex> lock(log.mutex);
  ASSERT_EQ(log.results.size(), 1u);
  EXPECT_EQ(log.results[0].attempts, 40u);
}

TEST(ReaderGatewayTest, LossyChannelRetriesStayIdempotent) {
  // 30% loss each way forces plenty of retransmissions; the dedup cache
  // must absorb every one — zero kReplay outcomes, and the cluster grants
  // each request at most once.
  ClusterConfig cluster_config;
  cluster_config.nodes = 3;
  VaultCluster cluster(cluster_config);
  crypto::Drbg drbg(94);

  constexpr std::uint64_t kSessions = 8;
  std::vector<SessionKey> keys;
  for (std::uint64_t sid = 0; sid < kSessions; ++sid) {
    keys.push_back(random_key(drbg));
    ASSERT_TRUE(cluster.install(sid, keys.back()));
  }

  GatewayConfig gw_config;
  gw_config.workers = 4;
  gw_config.max_attempts = 10;
  gw_config.backoff_base_s = 0.0001;
  gw_config.backoff_max_s = 0.0005;
  gw_config.channel.mobile_to_server.loss = 0.3;
  gw_config.channel.server_to_mobile.loss = 0.3;
  gw_config.channel.mobile_to_server.duplicate = 0.1;
  gw_config.channel.server_to_mobile.duplicate = 0.1;

  constexpr std::uint64_t kRequests = 96;
  ResultLog log;
  ReaderGateway gateway(cluster, gw_config);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const std::uint64_t sid = i % kSessions;
    ASSERT_TRUE(
        gateway.submit(sid, request_wire(sid, 1 + i / kSessions, keys[sid]), log.recorder())
            .has_value());
  }
  gateway.finish();

  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.resolved, kRequests);  // every request resolved, no hangs
  EXPECT_GT(stats.attempts, kRequests);  // the channel really was lossy
  EXPECT_EQ(log.count(AccessStatus::kReplay), 0u);
  EXPECT_EQ(log.count(AccessStatus::kUnavailable), 0u);
  const std::uint64_t granted = log.count(AccessStatus::kGranted);
  const std::uint64_t exhausted = log.count(AccessStatus::kRetryExhausted);
  EXPECT_EQ(granted + exhausted, kRequests);
  // At-most-once: grants never exceed distinct requests, and every grant
  // the gateway missed is covered by a typed retry-exhausted outcome.
  const ClusterStats cs = cluster.stats();
  EXPECT_LE(cs.vault_grants, kRequests);
  EXPECT_GE(cs.vault_grants, granted);
  EXPECT_LE(cs.vault_grants - granted, exhausted);
}

namespace {

using FaultTrace = std::map<std::uint64_t, std::pair<AccessStatus, std::uint32_t>>;

/// (status, attempts) per request id after the lossy 96-request stream of
/// LossyChannelRetriesStayIdempotent runs through a fresh cluster.
FaultTrace lossy_trace(std::size_t workers) {
  ClusterConfig cluster_config;
  cluster_config.nodes = 3;
  VaultCluster cluster(cluster_config);
  crypto::Drbg drbg(94);

  constexpr std::uint64_t kSessions = 8;
  std::vector<SessionKey> keys;
  for (std::uint64_t sid = 0; sid < kSessions; ++sid) {
    keys.push_back(random_key(drbg));
    EXPECT_TRUE(cluster.install(sid, keys.back()));
  }

  GatewayConfig gw_config;
  gw_config.workers = workers;
  gw_config.max_attempts = 10;
  gw_config.backoff_base_s = 0.0001;
  gw_config.backoff_max_s = 0.0005;
  gw_config.channel.mobile_to_server.loss = 0.3;
  gw_config.channel.server_to_mobile.loss = 0.3;
  gw_config.channel.mobile_to_server.duplicate = 0.1;
  gw_config.channel.server_to_mobile.duplicate = 0.1;

  ResultLog log;
  {
    ReaderGateway gateway(cluster, gw_config);
    for (std::uint64_t i = 0; i < 96; ++i) {
      const std::uint64_t sid = i % kSessions;
      EXPECT_TRUE(
          gateway.submit(sid, request_wire(sid, 1 + i / kSessions, keys[sid]), log.recorder())
              .has_value());
    }
  }
  FaultTrace trace;
  for (const GatewayResult& r : log.results) trace[r.request_id] = {r.status, r.attempts};
  return trace;
}

std::size_t disagreements(const FaultTrace& a, const FaultTrace& b) {
  std::size_t n = 0;
  for (const auto& [id, outcome] : a) {
    const auto it = b.find(id);
    n += it == b.end() || it->second != outcome ? 1 : 0;
  }
  return n;
}

}  // namespace

TEST(ReaderGatewayTest, FaultTraceIsAFunctionOfTheRequestId) {
  // Each request owns its link, seeded from its id, so neither the loop's
  // thread count nor what else is in flight can change what the WAN does to
  // it: every request id resolves with the same status after the same
  // number of attempts at 1 worker, at 4, and at 4 again.
  const FaultTrace one = lossy_trace(1);
  ASSERT_EQ(one.size(), 96u);
  std::uint32_t retried = 0;
  for (const auto& [id, outcome] : one) retried += outcome.second > 1 ? 1 : 0;
  EXPECT_GT(retried, 0u);  // the channel really was lossy

  const FaultTrace four = lossy_trace(4);
  const FaultTrace again = lossy_trace(4);
  ASSERT_EQ(four.size(), 96u);
  ASSERT_EQ(again.size(), 96u);
  EXPECT_EQ(disagreements(one, four), 0u);
  EXPECT_EQ(disagreements(four, again), 0u);
}
