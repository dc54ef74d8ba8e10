#include "server/grants.hpp"

#include <algorithm>

#include "crypto/hmac.hpp"
#include "server/key_vault.hpp"
#include "server/replay_window.hpp"

namespace wavekey::server {

namespace {

using protocol::FixedWireWriter;
using protocol::MessageType;
using protocol::WireError;
using protocol::WireReader;

constexpr double kUsPerSecond = 1e6;

std::uint64_t to_virtual_us(double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<std::uint64_t>(seconds * kUsPerSecond);
}

GrantToken mint(std::uint64_t tenant_id, std::uint64_t tag_uid, std::uint64_t actuator_id,
                std::uint64_t counter, std::uint32_t scope, std::uint32_t key_epoch,
                std::uint64_t expires_us, const crypto::HmacKey& grant_mac_key) {
  GrantToken token;
  token.tenant_id = tenant_id;
  token.tag_uid = tag_uid;
  token.actuator_id = actuator_id;
  token.counter = counter;
  token.scope = scope;
  token.key_epoch = key_epoch;
  token.expires_us = expires_us;
  token.mac = grant_mac_key.mac(token.mac_input());
  return token;
}

bool mac_matches(const GrantToken& token, const crypto::HmacKey& grant_mac_key) {
  return crypto::digest_equal(grant_mac_key.mac(token.mac_input()), token.mac);
}

}  // namespace

// ---------------------------------------------------------------------------
// GrantToken wire format

std::array<std::uint8_t, GrantToken::kMacInputBytes> GrantToken::mac_input() const {
  FixedWireWriter<kMacInputBytes> w;
  w.u8(static_cast<std::uint8_t>(MessageType::kGrantToken));
  w.u64(tenant_id);
  w.u64(tag_uid);
  w.u64(actuator_id);
  w.u64(counter);
  w.u32(scope);
  w.u32(key_epoch);
  w.u64(expires_us);
  return w.take();
}

Bytes GrantToken::serialize() const {
  const auto input = mac_input();
  Bytes out;
  out.reserve(input.size() + mac.size());
  out.insert(out.end(), input.begin(), input.end());
  out.insert(out.end(), mac.begin(), mac.end());
  return out;
}

GrantToken GrantToken::parse(std::span<const std::uint8_t> wire) {
  WireReader r(wire);
  if (r.u8() != static_cast<std::uint8_t>(MessageType::kGrantToken))
    throw WireError("GrantToken: wrong type tag");
  GrantToken token;
  token.tenant_id = r.u64();
  token.tag_uid = r.u64();
  token.actuator_id = r.u64();
  token.counter = r.u64();
  token.scope = r.u32();
  token.key_epoch = r.u32();
  token.expires_us = r.u64();
  const std::span<const std::uint8_t> mac = r.view(kMacBytes);
  std::copy(mac.begin(), mac.end(), token.mac.begin());
  r.expect_done();
  return token;
}

GrantToken make_grant_token(std::uint64_t tenant_id, std::uint64_t tag_uid,
                            std::uint64_t actuator_id, std::uint64_t counter,
                            std::uint32_t scope, std::uint32_t key_epoch,
                            std::uint64_t expires_us,
                            const crypto::Digest256& grant_mac_key) {
  return mint(tenant_id, tag_uid, actuator_id, counter, scope, key_epoch, expires_us,
              crypto::HmacKey(grant_mac_key));
}

bool verify_grant_token_mac(const GrantToken& token, const crypto::Digest256& grant_mac_key) {
  return mac_matches(token, crypto::HmacKey(grant_mac_key));
}

// ---------------------------------------------------------------------------
// GrantIssuer

GrantIssuer::GrantIssuer(std::span<const std::uint8_t> master, AuditLog* audit)
    : tree_(master), audit_(audit) {}

GrantIssuer::Lineage::Lineage(const crypto::Digest256& tag_key, std::uint32_t key_epoch,
                              bool revoked)
    : tag_key(tag_key),
      grant_mac(crypto::KdfTree::purpose_key(tag_key, crypto::KeyPurpose::kGrantMac)),
      grant_mac_key(grant_mac),
      key_epoch(key_epoch),
      revoked(revoked) {}

GrantIssuer::Lineage& GrantIssuer::lineage_locked(std::uint64_t tenant_id,
                                                  std::uint64_t tag_uid) {
  const TagId id{tenant_id, tag_uid};
  auto it = lineages_.find(id);
  if (it == lineages_.end())
    it = lineages_.emplace(id, Lineage(tree_.tag_key(tenant_id, tag_uid), 0, false)).first;
  return it->second;
}

void GrantIssuer::audit_event(AuditKind kind, std::uint64_t tenant_id, std::uint64_t tag_uid,
                              std::uint64_t actuator_id, std::uint64_t counter,
                              AccessStatus status) {
  if (!audit_) return;
  AuditRecord record;
  record.kind = kind;
  record.tenant_id = tenant_id;
  record.tag_uid = tag_uid;
  record.actuator_id = actuator_id;
  record.counter = counter;
  record.status = status;
  audit_->append(record);
}

std::optional<GrantToken> GrantIssuer::issue(std::uint64_t tenant_id, std::uint64_t tag_uid,
                                             std::uint64_t actuator_id, std::uint32_t scope,
                                             double ttl_s, double now_s) {
  std::lock_guard<std::mutex> lock(mu_);
  Lineage& lineage = lineage_locked(tenant_id, tag_uid);
  if (lineage.revoked) {
    stats_.refused += 1;
    audit_event(AuditKind::kIssueRefused, tenant_id, tag_uid, actuator_id, 0,
                AccessStatus::kRevoked);
    return std::nullopt;
  }
  std::uint64_t& next = next_counter_[StreamId{tenant_id, actuator_id}];
  if (next == 0) next = 1;  // strict streams mint from 1 (counter_advance floor)
  const std::uint64_t counter = next++;
  GrantToken token = mint(tenant_id, tag_uid, actuator_id, counter, scope, lineage.key_epoch,
                          to_virtual_us(now_s + ttl_s), lineage.grant_mac_key);
  stats_.issued += 1;
  audit_event(AuditKind::kIssue, tenant_id, tag_uid, actuator_id, counter,
              AccessStatus::kGranted);
  return token;
}

ProvisionedTag GrantIssuer::provision(std::uint64_t tenant_id, std::uint64_t tag_uid,
                                      std::uint32_t allowed_scopes) {
  std::lock_guard<std::mutex> lock(mu_);
  Lineage& lineage = lineage_locked(tenant_id, tag_uid);
  ProvisionedTag tag;
  tag.tenant_id = tenant_id;
  tag.tag_uid = tag_uid;
  tag.grant_mac_key = lineage.grant_mac;
  tag.key_epoch = lineage.key_epoch;
  tag.allowed_scopes = allowed_scopes;
  audit_event(AuditKind::kProvision, tenant_id, tag_uid, 0, 0, AccessStatus::kGranted);
  return tag;
}

std::optional<std::uint32_t> GrantIssuer::rotate_tag(std::uint64_t tenant_id,
                                                     std::uint64_t tag_uid) {
  std::lock_guard<std::mutex> lock(mu_);
  Lineage& lineage = lineage_locked(tenant_id, tag_uid);
  if (lineage.revoked) return std::nullopt;
  // Literally KeyVault's rotation machinery: the tag key plays the session
  // key, the tag uid plays the session id. Rebuilding the lineage refreshes
  // its cached leaf.
  const std::uint32_t epoch = lineage.key_epoch + 1;
  lineage = Lineage(derive_rotated_key(lineage.tag_key, tag_uid, epoch), epoch, false);
  stats_.rotations += 1;
  audit_event(AuditKind::kRotate, tenant_id, tag_uid, 0, lineage.key_epoch,
              AccessStatus::kGranted);
  return lineage.key_epoch;
}

bool GrantIssuer::revoke_tag(std::uint64_t tenant_id, std::uint64_t tag_uid) {
  std::lock_guard<std::mutex> lock(mu_);
  Lineage& lineage = lineage_locked(tenant_id, tag_uid);
  if (lineage.revoked) return false;
  lineage.revoked = true;
  stats_.revocations += 1;
  audit_event(AuditKind::kRevoke, tenant_id, tag_uid, 0, 0, AccessStatus::kRevoked);
  return true;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> GrantIssuer::revoked_tags() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TagId> out;
  for (const auto& [id, lineage] : lineages_)
    if (lineage.revoked) out.push_back(id);
  return out;
}

ExportedIssuerState GrantIssuer::export_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExportedIssuerState state;
  state.lineages.reserve(lineages_.size());
  for (const auto& [id, lineage] : lineages_)
    state.lineages.push_back(ExportedIssuerState::Lineage{
        id.first, id.second, lineage.tag_key, lineage.key_epoch, lineage.revoked});
  state.counters.reserve(next_counter_.size());
  for (const auto& [id, next] : next_counter_)
    state.counters.push_back(ExportedIssuerState::CounterStream{id.first, id.second, next});
  return state;
}

void GrantIssuer::import_state(const ExportedIssuerState& state) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ExportedIssuerState::Lineage& lineage : state.lineages)
    lineages_.insert_or_assign(TagId{lineage.tenant_id, lineage.tag_uid},
                               Lineage(lineage.tag_key, lineage.key_epoch, lineage.revoked));
  for (const ExportedIssuerState::CounterStream& stream : state.counters) {
    std::uint64_t& next = next_counter_[StreamId{stream.tenant_id, stream.actuator_id}];
    // Max-merge: never move a stream backwards, even if the import races
    // local issuance during a drain.
    next = std::max(next, stream.next_counter);
  }
  audit_event(AuditKind::kHandoff, 0, 0, 0, state.counters.size(), AccessStatus::kGranted);
}

GrantIssuer::Stats GrantIssuer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// OfflineVerifier

OfflineVerifier::OfflineVerifier(std::uint64_t actuator_id, AuditLog* audit)
    : actuator_id_(actuator_id), audit_(audit) {}

void OfflineVerifier::provision(const ProvisionedTag& tag) {
  TagState state{crypto::HmacKey(tag.grant_mac_key), tag.key_epoch, tag.allowed_scopes,
                 /*revoked=*/false};
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = tags_.try_emplace(TagId{tag.tenant_id, tag.tag_uid}, state);
  if (!inserted) {
    // A routine re-sync must not re-open tokens minted before a revocation.
    state.revoked = it->second.revoked;
    it->second = state;
  }
}

void OfflineVerifier::revoke(std::uint64_t tenant_id, std::uint64_t tag_uid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tags_.find(TagId{tenant_id, tag_uid});
  if (it == tags_.end()) {
    // Revocation can arrive before the tag was ever provisioned. The
    // placeholder holds the all-zero leaf at epoch 0 with no scopes, so its
    // tokens keep the verdicts they always had: kStaleEpoch off epoch 0,
    // kBadMac unless MACed under the zero key, kRevoked otherwise.
    it = tags_.emplace(TagId{tenant_id, tag_uid},
                       TagState{crypto::HmacKey(crypto::Digest256{}), 0, 0, false})
             .first;
  }
  it->second.revoked = true;
}

AccessStatus OfflineVerifier::verify_locked(std::span<const std::uint8_t> wire, double now_s,
                                            std::uint64_t& tenant, std::uint64_t& tag,
                                            std::uint64_t& counter) {
  GrantToken token;
  try {
    token = GrantToken::parse(wire);
  } catch (const WireError&) {
    return AccessStatus::kMalformed;
  }
  tenant = token.tenant_id;
  tag = token.tag_uid;
  counter = token.counter;
  if (token.actuator_id != actuator_id_) return AccessStatus::kWrongScope;
  const auto it = tags_.find(TagId{token.tenant_id, token.tag_uid});
  if (it == tags_.end()) return AccessStatus::kUnknownSession;
  const TagState& state = it->second;
  if (token.key_epoch != state.key_epoch) return AccessStatus::kStaleEpoch;
  // MAC before ANY counter-state read or write: a forged token must not be
  // able to burn counters or probe the high-water.
  if (!mac_matches(token, state.grant_mac_key)) return AccessStatus::kBadMac;
  if (state.revoked) return AccessStatus::kRevoked;
  if (to_virtual_us(now_s) >= token.expires_us) return AccessStatus::kExpired;
  if ((token.scope & ~state.allowed_scopes) != 0) return AccessStatus::kWrongScope;
  std::uint64_t& seen = seen_[token.tenant_id];
  if (counter_advance(seen, token.counter)) {
    seen = token.counter;
    return AccessStatus::kGranted;
  }
  return token.counter == seen ? AccessStatus::kReplay : AccessStatus::kCounterRollback;
}

AccessStatus OfflineVerifier::verify(std::span<const std::uint8_t> wire, double now_s) {
  std::uint64_t tenant = 0, tag = 0, counter = 0;
  AccessStatus status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    status = verify_locked(wire, now_s, tenant, tag, counter);
    stats_.attempts += 1;
    stats_.by_status[static_cast<std::size_t>(status)] += 1;
    if (status == AccessStatus::kGranted) stats_.granted += 1;
  }
  if (audit_) {
    AuditRecord record;
    record.kind = AuditKind::kVerify;
    record.tenant_id = tenant;
    record.tag_uid = tag;
    record.actuator_id = actuator_id_;
    record.counter = counter;
    record.status = status;
    record.time_us = to_virtual_us(now_s);
    audit_->append(record);
  }
  return status;
}

std::vector<ExportedIssuerState::CounterStream> OfflineVerifier::export_counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ExportedIssuerState::CounterStream> out;
  out.reserve(seen_.size());
  for (const auto& [tenant, seen] : seen_)
    out.push_back(ExportedIssuerState::CounterStream{tenant, actuator_id_, seen});
  return out;
}

void OfflineVerifier::import_counters(
    std::span<const ExportedIssuerState::CounterStream> counters) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const ExportedIssuerState::CounterStream& stream : counters) {
    std::uint64_t& seen = seen_[stream.tenant_id];
    seen = std::max(seen, stream.next_counter);
  }
}

OfflineVerifier::Stats OfflineVerifier::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace wavekey::server
