// Offline-grant soak (DESIGN.md §14): one actuator rides a full
// reachable -> partitioned -> healed cycle and the ledger stays EXACT at
// every step:
//
//  * reachable — online AccessRequests through a clean gateway all grant,
//    and every vault decision lands on the serving node's hash chain: the
//    chain's record count equals the cluster's executed count, the chain
//    verifies end-to-end, and a response's cross-linked head matches the
//    node's live head;
//  * partitioned — a blackhole gateway (100% loss both ways) can reach
//    nothing, yet every pre-issued GrantToken resolves through the embedded
//    OfflineVerifier with a closed-form outcome: the K in-order tokens all
//    grant vault-free, replays of the last accepted token -> kReplay,
//    held-back earlier counters -> kCounterRollback, flipped MACs ->
//    kBadMac, short-TTL tokens -> kExpired, disallowed scope bits ->
//    kWrongScope, unprovisioned tags -> kUnknownSession, token-tagged
//    garbage -> kMalformed, and non-token wires fall through to
//    kRetryExhausted (no fallback for vault-keyed requests). Mid-partition
//    the issuer's state is exported to a replacement which keeps minting —
//    zero counter reuse — and a sibling tag's lineage rotation leaves the
//    soak tag's keys byte-identical (the diversification proof);
//  * healed — the issuer's partition-time revocations propagate to the
//    verifier, the live (replacement) issuer re-provisions every tag as a
//    real re-sync would, and every revoked-tag token is still refused;
//    online traffic resumes and the audit chain simply extends.
//
// The verifier's own audit chain must hold exactly one record per
// verification attempt, verify end-to-end, and pinpoint the exact index of
// a deliberately corrupted record (restored afterwards).
//
// Exit code (the CI gate) asserts the full ledger, plus that every phase
// resolved each submission, every partition rejection class fired and the
// heal refused revoked tokens; each miss is named on stderr.
//
// Knobs: WAVEKEY_BENCH_SCALE scales the token volume (default 1.0).

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <vector>

#include "bench/harness.hpp"
#include "crypto/drbg.hpp"
#include "server/cluster.hpp"
#include "server/gateway.hpp"
#include "server/grants.hpp"

using namespace wavekey;
using namespace wavekey::server;

namespace {

std::array<std::uint8_t, kNonceBytes> nonce_from(std::uint64_t v) {
  std::array<std::uint8_t, kNonceBytes> nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i)
    nonce[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return nonce;
}

/// Thread-safe outcome tally + completion latch for one gateway phase.
struct Tally {
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t submitted = 0;
  std::uint64_t resolved = 0;
  std::uint64_t offline = 0;
  std::uint64_t outcomes[kAccessStatusCount] = {};

  ReaderGateway::Callback recorder() {
    return [this](const GatewayResult& result) {
      std::lock_guard<std::mutex> lock(mutex);
      resolved += 1;
      if (result.offline) offline += 1;
      outcomes[static_cast<std::size_t>(result.status)] += 1;
      cv.notify_all();
    };
  }

  void submit(ReaderGateway& gw, std::uint64_t tenant, const Bytes& wire) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      submitted += 1;
    }
    gw.submit(tenant, wire, recorder());
  }

  std::uint64_t count(AccessStatus status) {
    std::lock_guard<std::mutex> lock(mutex);
    return outcomes[static_cast<std::size_t>(status)];
  }
  bool all_resolved() {
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t total = 0;
    for (std::uint64_t c : outcomes) total += c;
    return resolved == submitted && total == resolved;
  }
};

const char* ok(bool b) { return b ? "true" : "false"; }

constexpr std::uint64_t kTenant = 1;
constexpr std::uint64_t kTag = 42;        ///< the soak tag
constexpr std::uint64_t kSiblingTag = 44; ///< rotated mid-partition (scoping proof)
constexpr std::uint64_t kRevokedTag = 99; ///< revoked mid-partition
constexpr std::uint64_t kActuator = 5;

}  // namespace

int main() {
  const double scale = bench::scale();
  const std::uint64_t online_requests =
      std::max<std::uint64_t>(16, static_cast<std::uint64_t>(32 * scale));
  const std::uint64_t offline_grants =
      std::max<std::uint64_t>(16, static_cast<std::uint64_t>(64 * scale));
  const std::uint64_t held_back = 6;     // earlier counters submitted late -> rollback
  const std::uint64_t replays = 8;       // resubmissions of the last accepted token
  const std::uint64_t bad_macs = 6;
  const std::uint64_t expired = 4;
  const std::uint64_t wrong_scope = 4;
  const std::uint64_t unknown_tag = 4;
  const std::uint64_t malformed = 6;     // token-tagged garbage
  const std::uint64_t non_token = 4;     // garbage that must NOT hit the fallback
  const std::uint64_t handoff_grants = 8;
  const std::uint64_t revoked_tokens = 5;
  const std::uint64_t healed_requests = 8;

  // ---- shared fixtures ------------------------------------------------------
  crypto::Drbg rng(0x0FF1CEull);
  Bytes master(32);
  rng.random_bytes(master);
  crypto::Digest256 seal{};
  rng.random_bytes(seal);

  AuditLog issuer_audit(AuditLog::Config{1, seal});
  AuditLog verifier_audit(AuditLog::Config{1, seal});
  GrantIssuer issuer(master, &issuer_audit);
  OfflineVerifier verifier(kActuator, &verifier_audit);
  verifier.provision(issuer.provision(kTenant, kTag, /*allowed_scopes=*/0x3));
  verifier.provision(issuer.provision(kTenant, kRevokedTag, 0x3));

  ClusterConfig cluster_config;
  cluster_config.nodes = 1;
  cluster_config.partitions = 16;
  cluster_config.vault.capacity = online_requests * 2 + 256;
  cluster_config.audit_seal = seal;
  VaultCluster cluster(cluster_config);

  std::vector<SessionKey> keys(online_requests);
  for (std::uint64_t sid = 0; sid < online_requests; ++sid) {
    rng.random_bytes(keys[sid]);
    if (!cluster.install(sid, keys[sid])) {
      std::printf("{\"bench\": \"grants\", \"error\": \"install failed\"}\n");
      return 1;
    }
  }
  const auto online_wire = [&](std::uint64_t sid, std::uint64_t counter) {
    return make_access_request(sid, 0, counter, nonce_from(counter), {0xD0}, keys[sid])
        .serialize();
  };

  // ---- phase 1: reachable — online traffic, audited ------------------------
  Tally reachable;
  {
    GatewayConfig cfg;
    cfg.gateway_id = 1;
    cfg.workers = 2;
    cfg.queue_capacity = online_requests + 16;
    cfg.channel.seed = 0xC1EA7;  // all fault rates zero: deterministic
    ReaderGateway gw(cluster, cfg);
    for (std::uint64_t sid = 0; sid < online_requests; ++sid)
      reachable.submit(gw, kTenant, online_wire(sid, 1));
    gw.finish();
  }
  // One direct request pins the cross-link: the response must carry the
  // serving node's live chain head.
  bool crosslink_ok = false;
  {
    const Bytes probe_wire = online_wire(0, 2);
    ClusterRequest probe;
    probe.request_id = 0xCAFE;
    probe.tenant_id = kTenant;
    probe.inner = probe_wire;
    const ClusterResponse resp = cluster.execute(probe);
    const AuditHead head = cluster.audit_log(0)->head(0);
    crosslink_ok = resp.status == AccessStatus::kGranted && resp.audit_count == head.count &&
                   resp.audit_hash == head.hash && resp.audit_count > 0;
  }
  const std::uint64_t executed_reachable = cluster.stats().executed;
  const bool reachable_ledger_ok =
      reachable.all_resolved() && reachable.count(AccessStatus::kGranted) == online_requests &&
      cluster.audit_log(0)->total_size() == executed_reachable &&
      cluster.audit_log(0)->verify_head(0) &&
      cluster.audit_log(0)->verify_range(0, 0, executed_reachable) == std::nullopt;

  // ---- token pre-issue (issue order defines the counter stream) ------------
  const double kNow = 1.0;  // the verifier's frozen virtual clock (seconds)
  const auto issue_wire = [&](GrantIssuer& iss, std::uint64_t tag, std::uint32_t scope,
                              double ttl_s) {
    const auto token = iss.issue(kTenant, tag, kActuator, scope, ttl_s, 0.0);
    return token ? token->serialize() : Bytes{};
  };

  std::vector<Bytes> held_wires, main_wires, badmac_wires, expired_wires, scope_wires,
      unknown_wires, revoked_wires;
  for (std::uint64_t i = 0; i < held_back; ++i)
    held_wires.push_back(issue_wire(issuer, kTag, 0x1, 3600.0));
  for (std::uint64_t i = 0; i < offline_grants; ++i)
    main_wires.push_back(issue_wire(issuer, kTag, 0x1, 3600.0));
  for (std::uint64_t i = 0; i < bad_macs; ++i) {
    Bytes w = issue_wire(issuer, kTag, 0x1, 3600.0);
    w[w.size() - 1 - (i % kMacBytes)] ^= 0x40;  // flip a MAC byte
    badmac_wires.push_back(std::move(w));
  }
  for (std::uint64_t i = 0; i < expired; ++i)
    expired_wires.push_back(issue_wire(issuer, kTag, 0x1, /*ttl_s=*/0.5));  // < kNow
  for (std::uint64_t i = 0; i < wrong_scope; ++i)
    scope_wires.push_back(issue_wire(issuer, kTag, /*scope=*/0x4, 3600.0));  // outside 0x3
  for (std::uint64_t i = 0; i < unknown_tag; ++i)
    unknown_wires.push_back(issue_wire(issuer, /*tag=*/43, 0x1, 3600.0));
  for (std::uint64_t i = 0; i < revoked_tokens; ++i)
    revoked_wires.push_back(issue_wire(issuer, kRevokedTag, 0x1, 3600.0));

  // ---- phase 2: partitioned — blackhole WAN, offline verification ----------
  // Mid-partition chaos on the control plane: the sibling tag rotates (the
  // soak tag's keys must not move a byte), the revoked tag is revoked, and
  // the issuer fails over to a replacement that continues the stream.
  const crypto::Digest256 soak_key_before =
      issuer.provision(kTenant, kTag, 0x3).grant_mac_key;
  const bool sibling_rotated = issuer.rotate_tag(kTenant, kSiblingTag).has_value();
  const crypto::Digest256 soak_key_after =
      issuer.provision(kTenant, kTag, 0x3).grant_mac_key;
  const bool sibling_scoping_ok = sibling_rotated && soak_key_before == soak_key_after;

  const bool revoke_ok = issuer.revoke_tag(kTenant, kRevokedTag);

  GrantIssuer replacement(master, &issuer_audit);
  replacement.import_state(issuer.export_state());
  std::vector<Bytes> handoff_wires;
  for (std::uint64_t i = 0; i < handoff_grants; ++i)
    handoff_wires.push_back(issue_wire(replacement, kTag, 0x1, 3600.0));

  Tally partitioned;
  GatewayStats partitioned_gw{};
  {
    GatewayConfig cfg;
    cfg.gateway_id = 2;
    cfg.queue_capacity = 1;  // one request in flight: the counter stream is strict
    cfg.max_attempts = 2;
    cfg.attempt_timeout_s = 0.001;
    cfg.backoff_base_s = 0.0;
    cfg.backoff_max_s = 0.0;
    cfg.channel.seed = 0xB1AC;
    cfg.channel.mobile_to_server.loss = 1.0;  // total partition, both ways
    cfg.channel.server_to_mobile.loss = 1.0;
    cfg.offline_verifier = &verifier;
    cfg.offline_now = [kNow] { return kNow; };
    ReaderGateway gw(cluster, cfg);

    for (const Bytes& w : main_wires) partitioned.submit(gw, kTenant, w);
    for (std::uint64_t i = 0; i < replays; ++i)
      partitioned.submit(gw, kTenant, main_wires.back());
    for (const Bytes& w : held_wires) partitioned.submit(gw, kTenant, w);
    for (const Bytes& w : badmac_wires) partitioned.submit(gw, kTenant, w);
    for (const Bytes& w : expired_wires) partitioned.submit(gw, kTenant, w);
    for (const Bytes& w : scope_wires) partitioned.submit(gw, kTenant, w);
    for (const Bytes& w : unknown_wires) partitioned.submit(gw, kTenant, w);
    for (std::uint64_t i = 0; i < malformed; ++i) {
      Bytes garbage = {static_cast<std::uint8_t>(protocol::MessageType::kGrantToken),
                       static_cast<std::uint8_t>(i), 0xFF, 0x42};
      partitioned.submit(gw, kTenant, garbage);
    }
    for (std::uint64_t i = 0; i < non_token; ++i) {
      Bytes garbage = {static_cast<std::uint8_t>(protocol::MessageType::kAccessRequest),
                       static_cast<std::uint8_t>(i), 0xFF};
      partitioned.submit(gw, kTenant, garbage);
    }
    for (const Bytes& w : handoff_wires) partitioned.submit(gw, kTenant, w);
    gw.finish();
    partitioned_gw = gw.stats();
  }

  const std::uint64_t offline_attempts = offline_grants + replays + held_back + bad_macs +
                                         expired + wrong_scope + unknown_tag + malformed +
                                         handoff_grants;
  const bool partitioned_ledger_ok =
      partitioned.all_resolved() &&
      partitioned.count(AccessStatus::kGranted) == offline_grants + handoff_grants &&
      partitioned.count(AccessStatus::kReplay) == replays &&
      partitioned.count(AccessStatus::kCounterRollback) == held_back &&
      partitioned.count(AccessStatus::kBadMac) == bad_macs &&
      partitioned.count(AccessStatus::kExpired) == expired &&
      partitioned.count(AccessStatus::kWrongScope) == wrong_scope &&
      partitioned.count(AccessStatus::kUnknownSession) == unknown_tag &&
      partitioned.count(AccessStatus::kMalformed) == malformed &&
      partitioned.count(AccessStatus::kRetryExhausted) == non_token &&
      partitioned.offline == offline_attempts &&
      partitioned_gw.offline_verified == offline_attempts &&
      partitioned_gw.offline_granted == offline_grants + handoff_grants;
  // Not one envelope got through the blackhole to the cluster.
  const bool vault_free_ok = cluster.stats().executed == executed_reachable;

  // ---- phase 3: healed — revocations propagate, tags re-sync, traffic resumes
  // Revocation must survive the re-provisioning that follows it.
  for (const auto& [tenant, tag] : replacement.revoked_tags()) verifier.revoke(tenant, tag);
  for (const std::uint64_t tag : {kTag, kRevokedTag})
    verifier.provision(replacement.provision(kTenant, tag, 0x3));
  std::uint64_t revoked_refused = 0;
  for (const Bytes& w : revoked_wires)
    revoked_refused += verifier.verify(w, kNow) == AccessStatus::kRevoked ? 1 : 0;
  const bool revoked_ledger_ok = revoke_ok && revoked_refused == revoked_tokens;

  Tally healed;
  {
    GatewayConfig cfg;
    cfg.gateway_id = 3;
    cfg.workers = 2;
    cfg.queue_capacity = healed_requests + 16;
    cfg.channel.seed = 0x4EA1;
    ReaderGateway gw(cluster, cfg);
    for (std::uint64_t i = 0; i < healed_requests; ++i)
      healed.submit(gw, kTenant, online_wire(i % online_requests, 3));
    gw.finish();
  }
  const std::uint64_t executed_total = cluster.stats().executed;
  const bool healed_ledger_ok =
      healed.all_resolved() && healed.count(AccessStatus::kGranted) == healed_requests &&
      cluster.audit_log(0)->total_size() == executed_total &&
      cluster.audit_log(0)->verify_range(0, 0, executed_total) == std::nullopt;

  // ---- audit-chain ledger ---------------------------------------------------
  // The verifier chained exactly one record per attempt (gateway fallback
  // attempts + the direct revocation checks).
  const std::uint64_t verify_records = offline_attempts + revoked_tokens;
  bool verifier_chain_ok = verifier_audit.total_size() == verify_records &&
                           verifier_audit.verify_head(0) &&
                           verifier_audit.verify_range(0, 0, verify_records) == std::nullopt;
  // Tamper probe: flip one byte mid-chain; the fsck must name that exact
  // index, and restoring the byte must heal the chain.
  const std::uint64_t tampered_index = verify_records / 2;
  verifier_audit.corrupt_record_for_test(0, tampered_index, 3, 0x20);
  const auto pinpointed = verifier_audit.verify_range(0, 0, verify_records);
  const bool tamper_ok = pinpointed.has_value() && *pinpointed == tampered_index;
  verifier_audit.corrupt_record_for_test(0, tampered_index, 3, 0x20);
  verifier_chain_ok =
      verifier_chain_ok && verifier_audit.verify_range(0, 0, verify_records) == std::nullopt;

  // The issuer chain holds exactly one record per control-plane event.
  const GrantIssuer::Stats is1 = issuer.stats();
  const GrantIssuer::Stats is2 = replacement.stats();
  const std::uint64_t provisions = 2 /*initial*/ + 2 /*sibling proof*/ + 2 /*heal re-sync*/;
  const std::uint64_t handoffs = 1;
  const std::uint64_t issuer_records = is1.issued + is2.issued + is1.refused + is2.refused +
                                       is1.rotations + is2.rotations + is1.revocations +
                                       is2.revocations + provisions + handoffs;
  const bool issuer_chain_ok =
      issuer_audit.total_size() == issuer_records && issuer_audit.verify_head(0) &&
      issuer_audit.verify_range(0, 0, issuer_records) == std::nullopt;

  // ---- report ---------------------------------------------------------------
  std::printf("{\n  \"bench\": \"grants\",\n");
  std::printf("  \"online_requests\": %llu,\n  \"offline_grants\": %llu,\n"
              "  \"handoff_grants\": %llu,\n",
              static_cast<unsigned long long>(online_requests),
              static_cast<unsigned long long>(offline_grants),
              static_cast<unsigned long long>(handoff_grants));
  const auto phase_json = [](const char* name, Tally& t, bool last = false) {
    std::printf("    \"%s\": {\"submitted\": %llu, \"resolved\": %llu, \"granted\": %llu, "
                "\"replay\": %llu, \"rollback\": %llu, \"bad_mac\": %llu, \"expired\": %llu, "
                "\"wrong_scope\": %llu, \"unknown\": %llu, \"malformed\": %llu, "
                "\"retry_exhausted\": %llu, \"offline\": %llu}%s\n",
                name, static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(t.resolved),
                static_cast<unsigned long long>(t.count(AccessStatus::kGranted)),
                static_cast<unsigned long long>(t.count(AccessStatus::kReplay)),
                static_cast<unsigned long long>(t.count(AccessStatus::kCounterRollback)),
                static_cast<unsigned long long>(t.count(AccessStatus::kBadMac)),
                static_cast<unsigned long long>(t.count(AccessStatus::kExpired)),
                static_cast<unsigned long long>(t.count(AccessStatus::kWrongScope)),
                static_cast<unsigned long long>(t.count(AccessStatus::kUnknownSession)),
                static_cast<unsigned long long>(t.count(AccessStatus::kMalformed)),
                static_cast<unsigned long long>(t.count(AccessStatus::kRetryExhausted)),
                static_cast<unsigned long long>(t.offline), last ? "" : ",");
  };
  std::printf("  \"phases\": {\n");
  phase_json("reachable", reachable);
  phase_json("partitioned", partitioned);
  phase_json("healed", healed, true);
  std::printf("  },\n");
  std::printf("  \"audit\": {\"cluster_records\": %llu, \"verifier_records\": %llu, "
              "\"issuer_records\": %llu, \"tampered_index\": %llu, \"pinpointed\": %lld},\n",
              static_cast<unsigned long long>(cluster.audit_log(0)->total_size()),
              static_cast<unsigned long long>(verifier_audit.total_size()),
              static_cast<unsigned long long>(issuer_audit.total_size()),
              static_cast<unsigned long long>(tampered_index),
              pinpointed ? static_cast<long long>(*pinpointed) : -1);
  std::printf("  \"revoked_tokens\": %llu,\n  \"revoked_refused\": %llu,\n",
              static_cast<unsigned long long>(revoked_tokens),
              static_cast<unsigned long long>(revoked_refused));
  std::printf("  \"reachable_ledger_ok\": %s,\n  \"crosslink_ok\": %s,\n"
              "  \"partitioned_ledger_ok\": %s,\n  \"vault_free_ok\": %s,\n"
              "  \"sibling_scoping_ok\": %s,\n  \"revoked_ledger_ok\": %s,\n"
              "  \"healed_ledger_ok\": %s,\n  \"verifier_chain_ok\": %s,\n"
              "  \"tamper_ok\": %s,\n  \"issuer_chain_ok\": %s\n}\n",
              ok(reachable_ledger_ok), ok(crosslink_ok), ok(partitioned_ledger_ok),
              ok(vault_free_ok), ok(sibling_scoping_ok), ok(revoked_ledger_ok),
              ok(healed_ledger_ok), ok(verifier_chain_ok), ok(tamper_ok), ok(issuer_chain_ok));

  bench::Gate gate("bench_grants");
  const std::pair<const char*, bool> flags[] = {
      {"reachable_ledger_ok", reachable_ledger_ok},
      {"crosslink_ok", crosslink_ok},
      {"partitioned_ledger_ok", partitioned_ledger_ok},
      {"vault_free_ok", vault_free_ok},
      {"sibling_scoping_ok", sibling_scoping_ok},
      {"revoked_ledger_ok", revoked_ledger_ok},
      {"healed_ledger_ok", healed_ledger_ok},
      {"verifier_chain_ok", verifier_chain_ok},
      {"tamper_ok", tamper_ok},
      {"issuer_chain_ok", issuer_chain_ok}};
  for (const auto& [name, value] : flags) gate.check(value, "%s", name);
  const std::pair<const char*, Tally*> phases[] = {
      {"reachable", &reachable}, {"partitioned", &partitioned}, {"healed", &healed}};
  for (const auto& [name, tally] : phases)
    gate.check(tally->resolved == tally->submitted, "%s: %llu of %llu submissions resolved",
               name, static_cast<unsigned long long>(tally->resolved),
               static_cast<unsigned long long>(tally->submitted));
  // An exact count of zero proves nothing: every class the partition
  // injects must actually have fired.
  const std::pair<const char*, AccessStatus> classes[] = {
      {"replay", AccessStatus::kReplay},
      {"rollback", AccessStatus::kCounterRollback},
      {"bad_mac", AccessStatus::kBadMac},
      {"expired", AccessStatus::kExpired},
      {"wrong_scope", AccessStatus::kWrongScope},
      {"unknown", AccessStatus::kUnknownSession},
      {"malformed", AccessStatus::kMalformed},
      {"retry_exhausted", AccessStatus::kRetryExhausted}};
  for (const auto& [name, status] : classes)
    gate.check(partitioned.count(status) > 0,
               "rejection class %s never fired during the partition", name);
  gate.check(revoked_refused > 0, "revocation propagation never refused a token");
  return gate.exit_code();
}
