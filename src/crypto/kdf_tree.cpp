#include "crypto/kdf_tree.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string_view>

#include "crypto/hkdf.hpp"

namespace wavekey::crypto {

namespace {

/// A derivation label on the stack: ASCII prefix || the low `id_bytes` bytes
/// of id, little-endian (le32 for epochs, le64 for tenant and tag ids).
struct Label {
  std::array<std::uint8_t, 32> bytes{};
  std::size_t size = 0;

  std::span<const std::uint8_t> view() const { return {bytes.data(), size}; }
};

Label make_label(std::string_view prefix, std::uint64_t id, std::size_t id_bytes) {
  Label label;
  if (prefix.size() + id_bytes > label.bytes.size())
    throw std::logic_error("KdfTree: label longer than its stack buffer");
  std::copy(prefix.begin(), prefix.end(), label.bytes.begin());
  for (std::size_t i = 0; i < id_bytes; ++i)
    label.bytes[prefix.size() + i] = static_cast<std::uint8_t>(id >> (8 * i));
  label.size = prefix.size() + id_bytes;
  return label;
}

}  // namespace

const char* key_purpose_label(KeyPurpose purpose) {
  switch (purpose) {
    case KeyPurpose::kGrantMac: return "grant_mac";
    case KeyPurpose::kSessionHmac: return "session_hmac";
    case KeyPurpose::kAuditSeal: return "audit_seal";
  }
  return "unknown";
}

KdfTree::KdfTree(std::span<const std::uint8_t> master, std::uint32_t master_epoch)
    : epoch_(master_epoch) {
  // Normalize arbitrary-width master input to one extract so the chained
  // rotation below always operates on a 256-bit value.
  master_ = hkdf_extract(make_label("wavekey-kdf-master", 0, 4).view(), master);
  derive_root();
}

void KdfTree::derive_root() {
  const Label root = make_label("wavekey-kdf-root", epoch_, 4);
  const std::span<const std::uint8_t> labels[] = {root.view()};
  root_ = hkdf_labeled(master_, labels);
}

void KdfTree::rotate_master() {
  // Forward-only chain, mirroring KeyVault's derive_rotated_key discipline:
  // the new master is a one-way function of the old, salted by the new epoch.
  epoch_ += 1;
  master_ = hkdf_extract(make_label("wavekey-kdf-rotate", epoch_, 4).view(), master_);
  derive_root();
}

Digest256 KdfTree::tenant_key(std::uint64_t tenant_id) const {
  const Label tenant = make_label("tenant", tenant_id, 8);
  const std::span<const std::uint8_t> labels[] = {tenant.view()};
  return hkdf_labeled(root_, labels);
}

Digest256 KdfTree::tag_key(std::uint64_t tenant_id, std::uint64_t tag_uid) const {
  const Label tenant = make_label("tenant", tenant_id, 8);
  const Label tag = make_label("tag", tag_uid, 8);
  const std::span<const std::uint8_t> labels[] = {tenant.view(), tag.view()};
  return hkdf_labeled(root_, labels);
}

Digest256 KdfTree::purpose_key(const Digest256& tag_key, KeyPurpose purpose) {
  const std::string_view name = key_purpose_label(purpose);
  const std::span<const std::uint8_t> labels[] = {
      {reinterpret_cast<const std::uint8_t*>(name.data()), name.size()}};
  return hkdf_labeled(tag_key, labels);
}

Digest256 KdfTree::purpose_key(std::uint64_t tenant_id, std::uint64_t tag_uid,
                               KeyPurpose purpose) const {
  return purpose_key(tag_key(tenant_id, tag_uid), purpose);
}

}  // namespace wavekey::crypto
