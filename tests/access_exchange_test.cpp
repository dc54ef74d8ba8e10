// Tests of the server's one request→grant routine (server/access_exchange.hpp,
// DESIGN.md §9.2) as AccessServer and VaultCluster run it: the MAC is
// verified over the bytes that arrived, so a parsed request's MAC input must
// be exactly its wire without the MAC; a wire that does not parse never
// reaches a vault; every grant either path returns is byte-for-byte the
// public encoder's; and the key schedule KeyVault::authorize hands back MACs
// exactly as the session key does.

#include <gtest/gtest.h>

#include <future>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "numeric/rng.hpp"
#include "server/access_exchange.hpp"
#include "server/access_server.hpp"
#include "server/cluster.hpp"
#include "server/key_vault.hpp"

using namespace wavekey;
using namespace wavekey::server;
using protocol::Bytes;

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

/// Wire bytes of a request before its payload: tag, session id, epoch,
/// counter, nonce, payload length.
constexpr std::size_t kRequestHeaderBytes = 1 + 8 + 4 + 8 + kNonceBytes + 4;

/// A request with random fields and a payload of 0..200 bytes, so the MAC
/// input (kRequestHeaderBytes + |payload|) crosses SHA-256 block boundaries.
AccessRequest random_request(Rng& rng, std::uint64_t session_id, std::uint64_t counter,
                             const SessionKey& key) {
  std::array<std::uint8_t, kNonceBytes> nonce{};
  rng.fill_bytes(nonce);
  Bytes payload(static_cast<std::size_t>(rng.uniform_u64(201)));
  rng.fill_bytes(payload);
  return make_access_request(session_id, 0, counter, nonce, std::move(payload), key);
}

/// Submits one request and waits for its outcome, so probes run in order.
AccessOutcome serve_one(AccessServer& server, const Bytes& wire, std::uint64_t tenant = 1) {
  std::promise<AccessOutcome> done;
  std::future<AccessOutcome> outcome = done.get_future();
  EXPECT_TRUE(server.submit(0, tenant, wire,
                            [&done](const AccessOutcome& o) { done.set_value(o); }));
  return outcome.get();
}

ClusterResponse execute(VaultCluster& cluster, std::uint64_t request_id, const Bytes& inner) {
  ClusterRequest envelope;
  envelope.request_id = request_id;
  envelope.tenant_id = 1;
  envelope.inner = inner;
  return cluster.execute(envelope);
}

Bytes expected_grant(std::uint64_t session_id, std::uint64_t counter, AccessStatus status,
                     std::span<const std::uint8_t> key) {
  return make_access_grant(session_id, counter, status, key).serialize();
}

/// Every field of VaultStats: "no vault call" means none of them moved.
bool same_vault_stats(const VaultStats& a, const VaultStats& b) {
  return a.installs == b.installs && a.rotations == b.rotations &&
         a.revocations == b.revocations && a.lru_evictions == b.lru_evictions &&
         a.ttl_evictions == b.ttl_evictions && a.purged_expired == b.purged_expired &&
         a.resident_entries == b.resident_entries &&
         a.optimistic_verifies == b.optimistic_verifies &&
         a.version_retries == b.version_retries && a.locked_fallbacks == b.locked_fallbacks;
}

}  // namespace

TEST(AccessExchangeTest, MacInputIsTheReceivedWireWithoutItsMac) {
  crypto::Drbg drbg(3301);
  Rng rng(3302);
  VaultConfig vc;
  KeyVault vault(vc);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(vault.install(5, key, 0.0));
  for (int i = 0; i < 500; ++i) {
    const AccessRequest req = random_request(rng, 5, 1 + static_cast<std::uint64_t>(i), key);
    const Bytes wire = req.serialize();
    ASSERT_EQ(wire.size(), kRequestHeaderBytes + req.payload.size() + kMacBytes);
    const Bytes prefix(wire.begin(), wire.end() - static_cast<std::ptrdiff_t>(kMacBytes));
    ASSERT_EQ(AccessRequest::parse(wire).mac_input(), prefix) << "request " << i;

    // The exchange verifies over that prefix: a genuine request is granted
    // and its grant verifies under the session key.
    AccessExchange exchange(wire);
    ASSERT_TRUE(exchange.parsed());
    ASSERT_EQ(exchange.authorize(vault, 1.0), AccessStatus::kGranted) << "request " << i;
    EXPECT_EQ(exchange.grant_wire(),
              expected_grant(5, req.counter, AccessStatus::kGranted, key));
  }
}

TEST(AccessExchangeTest, TrailingByteAndTruncatedMacNeverReachTheVault) {
  crypto::Drbg drbg(3311);
  Rng rng(3312);
  const SessionKey key = random_key(drbg);
  const Bytes malformed_grant = expected_grant(0, 0, AccessStatus::kMalformed, {});

  AccessServerConfig server_config;
  server_config.vault_purge_interval_s = 0.0;
  server_config.admission.burst = 1000.0;
  AccessServer server(server_config);
  ASSERT_TRUE(server.vault().install(9, key, server.now_s()));

  ClusterConfig cluster_config;
  cluster_config.nodes = 3;
  VaultCluster cluster(cluster_config);
  ASSERT_TRUE(cluster.install(9, key));

  const VaultStats vault_before = server.vault().stats();
  std::uint64_t request_id = 0;
  for (int i = 0; i < 100; ++i) {
    const Bytes wire = random_request(rng, 9, 1 + rng.uniform_u64(1u << 20), key).serialize();
    std::vector<Bytes> bad;
    Bytes trailing = wire;
    trailing.push_back(static_cast<std::uint8_t>(rng.uniform_u64(256)));
    bad.push_back(std::move(trailing));
    const std::size_t cut = 1 + static_cast<std::size_t>(rng.uniform_u64(kMacBytes));
    bad.emplace_back(wire.begin(), wire.end() - static_cast<std::ptrdiff_t>(cut));
    for (const Bytes& w : bad) {
      EXPECT_FALSE(AccessExchange(w).parsed());
      const AccessOutcome served = serve_one(server, w);
      EXPECT_EQ(served.status, AccessStatus::kMalformed);
      EXPECT_EQ(served.grant_wire, malformed_grant);
      const ClusterResponse executed = execute(cluster, ++request_id, w);
      EXPECT_EQ(executed.status, AccessStatus::kMalformed);
      EXPECT_EQ(executed.grant_wire, malformed_grant);
    }
  }
  server.finish();
  EXPECT_TRUE(same_vault_stats(server.vault().stats(), vault_before));
  EXPECT_EQ(server.stats().malformed, 200u);
  // The cluster exposes no vault counters: no envelope was executed, so no
  // node's vault or audit chain was touched.
  EXPECT_EQ(cluster.stats().executed, 0u);
  for (NodeId n = 0; n < cluster.nodes(); ++n) EXPECT_EQ(cluster.audit_log(n)->total_size(), 0u);
}

TEST(AccessExchangeTest, ServerGrantBytesMatchTheEncoderForEveryStatus) {
  crypto::Drbg drbg(3321);
  const SessionKey key = random_key(drbg);
  AccessServerConfig config;
  config.vault_purge_interval_s = 0.0;  // the expired probe must be reaped lazily
  AccessServer server(config);
  const double now = server.now_s();
  ASSERT_TRUE(server.vault().install(1, key, now));
  ASSERT_TRUE(server.vault().install(2, key, now));
  ASSERT_TRUE(server.vault().revoke(2));
  ASSERT_TRUE(server.vault().install(3, key, now - 2 * config.vault.ttl_s));  // expired

  struct Probe {
    AccessRequest req;
    AccessStatus want;
  };
  AccessRequest forged = make_access_request(1, 0, 2, nonce_from(2), {7, 7}, key);
  forged.mac[3] ^= 0x10;
  const AccessRequest granted = make_access_request(1, 0, 1, nonce_from(1), {1, 2, 3}, key);
  const std::vector<Probe> probes = {
      {granted, AccessStatus::kGranted},
      {granted, AccessStatus::kReplay},
      {forged, AccessStatus::kBadMac},
      {make_access_request(1, 1, 3, nonce_from(3), {}, key), AccessStatus::kStaleEpoch},
      {make_access_request(2, 0, 1, nonce_from(4), {4}, key), AccessStatus::kRevoked},
      {make_access_request(3, 0, 1, nonce_from(5), {5}, key), AccessStatus::kExpired},
      {make_access_request(4, 0, 1, nonce_from(6), {6}, key), AccessStatus::kUnknownSession},
  };
  for (const Probe& probe : probes) {
    const AccessOutcome outcome = serve_one(server, probe.req.serialize());
    ASSERT_EQ(outcome.status, probe.want) << access_status_name(probe.want);
    const bool keyed = probe.want == AccessStatus::kGranted;
    EXPECT_EQ(outcome.grant_wire,
              expected_grant(probe.req.session_id, probe.req.counter, probe.want,
                             keyed ? std::span<const std::uint8_t>(key)
                                   : std::span<const std::uint8_t>()))
        << access_status_name(probe.want);
    if (keyed) {
      EXPECT_TRUE(verify_access_grant(AccessGrant::parse(outcome.grant_wire), key));
    }
  }
  const AccessOutcome malformed = serve_one(server, Bytes{0x06, 0x01});
  EXPECT_EQ(malformed.status, AccessStatus::kMalformed);
  EXPECT_EQ(malformed.grant_wire, expected_grant(0, 0, AccessStatus::kMalformed, {}));
  server.finish();

  // The fast-rejects answer on the submit path, before any parse.
  AccessServerConfig limited_config;
  limited_config.admission.rate_per_s = 1e-6;
  limited_config.admission.burst = 1.0;
  AccessServer limited(limited_config);
  ASSERT_TRUE(limited.vault().install(1, key, limited.now_s()));
  const Bytes wire = make_access_request(1, 0, 1, nonce_from(1), {}, key).serialize();
  EXPECT_EQ(serve_one(limited, wire, 7).status, AccessStatus::kGranted);
  const AccessOutcome rate_limited = serve_one(limited, wire, 7);
  EXPECT_EQ(rate_limited.status, AccessStatus::kRateLimited);
  EXPECT_EQ(rate_limited.grant_wire, expected_grant(0, 0, AccessStatus::kRateLimited, {}));

  AccessServerConfig full_config;
  full_config.queue_capacity = 0;
  AccessServer full(full_config);
  const AccessOutcome shed = serve_one(full, wire);
  EXPECT_EQ(shed.status, AccessStatus::kShed);
  EXPECT_EQ(shed.grant_wire, expected_grant(0, 0, AccessStatus::kShed, {}));
}

TEST(AccessExchangeTest, ClusterGrantBytesMatchTheEncoderForEveryStatus) {
  crypto::Drbg drbg(3331);
  const SessionKey key = random_key(drbg);
  ClusterConfig config;
  config.nodes = 4;
  config.partitions = 32;
  VaultCluster cluster(config);
  ASSERT_TRUE(cluster.install(1, key));
  ASSERT_TRUE(cluster.install(2, key));
  ASSERT_TRUE(cluster.revoke(2));

  AccessRequest forged = make_access_request(1, 0, 2, nonce_from(2), {7, 7}, key);
  forged.mac[30] ^= 0x01;
  const AccessRequest granted = make_access_request(1, 0, 1, nonce_from(1), {1, 2, 3}, key);
  struct Probe {
    AccessRequest req;
    AccessStatus want;
  };
  const std::vector<Probe> probes = {
      {granted, AccessStatus::kGranted},
      {granted, AccessStatus::kReplay},
      {forged, AccessStatus::kBadMac},
      {make_access_request(1, 1, 3, nonce_from(3), {}, key), AccessStatus::kStaleEpoch},
      {make_access_request(2, 0, 1, nonce_from(4), {4}, key), AccessStatus::kRevoked},
      {make_access_request(4, 0, 1, nonce_from(6), {6}, key), AccessStatus::kUnknownSession},
  };
  std::uint64_t request_id = 0;
  const auto check = [&](const AccessRequest& req, AccessStatus want, VaultCluster& c) {
    const Bytes wire = req.serialize();
    const ClusterResponse resp = execute(c, ++request_id, wire);
    ASSERT_EQ(resp.status, want) << access_status_name(want);
    const bool keyed = want == AccessStatus::kGranted;
    EXPECT_EQ(resp.grant_wire,
              expected_grant(req.session_id, req.counter, want,
                             keyed ? std::span<const std::uint8_t>(key)
                                   : std::span<const std::uint8_t>()))
        << access_status_name(want);
    if (keyed) {
      EXPECT_TRUE(verify_access_grant(AccessGrant::parse(resp.grant_wire), key));
    }
  };
  for (const Probe& probe : probes) check(probe.req, probe.want, cluster);

  const Bytes garbage{0x06, 0x01};
  const ClusterResponse malformed = execute(cluster, ++request_id, garbage);
  EXPECT_EQ(malformed.status, AccessStatus::kMalformed);
  EXPECT_EQ(malformed.grant_wire, expected_grant(0, 0, AccessStatus::kMalformed, {}));

  cluster.crash(cluster.owners_of(1).primary);
  check(make_access_request(1, 0, 9, nonce_from(9), {9}, key), AccessStatus::kUnavailable,
        cluster);

  // A zero TTL: every session is expired as soon as it is installed.
  ClusterConfig expiring_config = config;
  expiring_config.vault.ttl_s = 0.0;
  VaultCluster expiring(expiring_config);
  ASSERT_TRUE(expiring.install(1, key));
  check(granted, AccessStatus::kExpired, expiring);
}

TEST(AccessExchangeTest, AuthorizeHandsBackTheScheduleItVerifiedWith) {
  crypto::Drbg drbg(3341);
  Rng rng(3342);
  VaultConfig vc;
  KeyVault vault(vc);
  const SessionKey key = random_key(drbg);
  ASSERT_TRUE(vault.install(6, key, 0.0));

  const AccessRequest req = make_access_request(6, 0, 1, nonce_from(1), {1, 2}, key);
  SessionKey key_out{};
  std::optional<crypto::HmacKey> schedule;
  ASSERT_EQ(vault.authorize(req, req.mac_input(), 0.5, &key_out, &schedule),
            AccessStatus::kGranted);
  EXPECT_EQ(key_out, key);
  ASSERT_TRUE(schedule.has_value());
  // KAT against the one-shot HMAC: messages on both sides of every SHA-256
  // padding boundary, plus the grant's 18-byte input.
  for (const std::size_t n : {0, 1, 18, 55, 56, 63, 64, 65, 119, 120, 200}) {
    Bytes message(n);
    rng.fill_bytes(message);
    EXPECT_EQ(schedule->mac(message), crypto::hmac_sha256(key, message)) << n << " bytes";
  }

  // Any other status leaves the out-parameters untouched.
  std::optional<crypto::HmacKey> untouched;
  SessionKey untouched_key{};
  EXPECT_EQ(vault.authorize(req, req.mac_input(), 0.5, &untouched_key, &untouched),
            AccessStatus::kReplay);
  AccessRequest forged = make_access_request(6, 0, 2, nonce_from(2), {}, key);
  forged.mac[0] ^= 1;
  EXPECT_EQ(vault.authorize(forged, forged.mac_input(), 0.5, &untouched_key, &untouched),
            AccessStatus::kBadMac);
  EXPECT_FALSE(untouched.has_value());
  EXPECT_EQ(untouched_key, SessionKey{});
}
