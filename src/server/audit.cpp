#include "server/audit.hpp"

#include <stdexcept>
#include <string_view>

#include "crypto/hmac.hpp"

namespace wavekey::server {

namespace {

using protocol::FixedWireWriter;

crypto::Digest256 shard_genesis(const crypto::Digest256& seal_key, std::uint64_t shard) {
  constexpr std::string_view kDomain = "wavekey-audit-genesis";
  FixedWireWriter<kDomain.size() + 8> input;
  input.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kDomain.data()), kDomain.size()));
  input.u64(shard);
  return crypto::hmac_sha256(seal_key, input.take());
}

}  // namespace

const char* audit_kind_name(AuditKind kind) {
  switch (kind) {
    case AuditKind::kIssue: return "issue";
    case AuditKind::kIssueRefused: return "issue_refused";
    case AuditKind::kVerify: return "verify";
    case AuditKind::kRotate: return "rotate";
    case AuditKind::kRevoke: return "revoke";
    case AuditKind::kProvision: return "provision";
    case AuditKind::kHandoff: return "handoff";
    case AuditKind::kAccess: return "access";
  }
  return "unknown";
}

std::array<std::uint8_t, AuditRecord::kBytes> AuditRecord::serialize() const {
  FixedWireWriter<kBytes> w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(tenant_id);
  w.u64(tag_uid);
  w.u64(actuator_id);
  w.u64(counter);
  w.u8(static_cast<std::uint8_t>(status));
  w.u64(time_us);
  return w.take();
}

AuditLog::AuditLog(Config config) : shards_(config.shards == 0 ? 1 : config.shards) {
  for (std::size_t s = 0; s < shards_.size(); ++s)
    shards_[s].genesis = shard_genesis(config.seal_key, s);
}

crypto::Digest256 AuditLog::link(const crypto::Digest256& prev,
                                 std::span<const std::uint8_t> record) {
  crypto::Sha256 hasher;
  hasher.update(prev);
  hasher.update(record);
  return hasher.finalize();
}

AuditHead AuditLog::append(const AuditRecord& record) {
  return append_to(static_cast<std::size_t>(record.tenant_id % shards_.size()), record);
}

AuditHead AuditLog::append_to(std::size_t shard, const AuditRecord& record) {
  Shard& s = shards_.at(shard);
  const auto bytes = record.serialize();
  std::lock_guard<std::mutex> lock(s.mu);
  const crypto::Digest256& prev = s.links.empty() ? s.genesis : s.links.back();
  s.links.push_back(link(prev, bytes));
  s.records.push_back(bytes);
  return AuditHead{s.records.size(), s.links.back()};
}

AuditHead AuditLog::head(std::size_t shard) const {
  const Shard& s = shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.links.empty()) return AuditHead{0, s.genesis};
  return AuditHead{s.records.size(), s.links.back()};
}

std::uint64_t AuditLog::size(std::size_t shard) const {
  const Shard& s = shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  return s.records.size();
}

std::uint64_t AuditLog::total_size() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) total += size(i);
  return total;
}

bool AuditLog::verify_head(std::size_t shard) const {
  const Shard& s = shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.links.empty()) return true;
  const std::size_t n = s.links.size();
  const crypto::Digest256& prev = n == 1 ? s.genesis : s.links[n - 2];
  return crypto::digest_equal(link(prev, s.records[n - 1]), s.links[n - 1]);
}

std::optional<std::uint64_t> AuditLog::verify_range(std::size_t shard, std::uint64_t from,
                                                    std::uint64_t to) const {
  const Shard& s = shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  if (to > s.records.size()) to = s.records.size();
  for (std::uint64_t i = from; i < to; ++i) {
    const crypto::Digest256& prev = i == 0 ? s.genesis : s.links[i - 1];
    if (!crypto::digest_equal(link(prev, s.records[i]), s.links[i])) return i;
  }
  return std::nullopt;
}

Bytes AuditLog::record_bytes(std::size_t shard, std::uint64_t index) const {
  const Shard& s = shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto& record = s.records.at(index);
  return Bytes(record.begin(), record.end());
}

void AuditLog::corrupt_record_for_test(std::size_t shard, std::uint64_t index,
                                       std::size_t offset, std::uint8_t xor_mask) {
  Shard& s = shards_.at(shard);
  std::lock_guard<std::mutex> lock(s.mu);
  s.records.at(index).at(offset) ^= xor_mask;
}

}  // namespace wavekey::server
