#include "server/access_protocol.hpp"

#include <algorithm>

#include "crypto/hmac.hpp"

namespace wavekey::server {

namespace {

using protocol::MessageType;
using protocol::WireError;
using protocol::WireReader;
using protocol::WireWriter;

/// A grant's MAC input: tag, session id, counter, status.
constexpr std::size_t kGrantMacInputBytes = 1 + 8 + 8 + 1;

/// The grant's MAC input, on the stack.
std::array<std::uint8_t, kGrantMacInputBytes> grant_mac_input(const AccessGrant& grant) {
  protocol::FixedWireWriter<kGrantMacInputBytes> w;
  w.u8(static_cast<std::uint8_t>(MessageType::kAccessGrant));
  w.u64(grant.session_id);
  w.u64(grant.counter);
  w.u8(static_cast<std::uint8_t>(grant.status));
  return w.take();
}

}  // namespace

const char* access_status_name(AccessStatus status) {
  switch (status) {
    case AccessStatus::kGranted: return "granted";
    case AccessStatus::kUnknownSession: return "unknown_session";
    case AccessStatus::kExpired: return "expired";
    case AccessStatus::kRevoked: return "revoked";
    case AccessStatus::kStaleEpoch: return "stale_epoch";
    case AccessStatus::kBadMac: return "bad_mac";
    case AccessStatus::kReplay: return "replay";
    case AccessStatus::kRateLimited: return "rate_limited";
    case AccessStatus::kShed: return "shed";
    case AccessStatus::kMalformed: return "malformed";
    case AccessStatus::kUnavailable: return "unavailable";
    case AccessStatus::kRetryExhausted: return "retry_exhausted";
    case AccessStatus::kCounterRollback: return "counter_rollback";
    case AccessStatus::kWrongScope: return "wrong_scope";
  }
  return "unknown";
}

Bytes AccessRequest::mac_input() const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(MessageType::kAccessRequest));
  w.u64(session_id);
  w.u32(epoch);
  w.u64(counter);
  w.bytes(nonce);
  w.blob(payload);
  return w.take();
}

Bytes AccessRequest::serialize() const {
  Bytes out = mac_input();
  out.insert(out.end(), mac.begin(), mac.end());
  return out;
}

AccessRequest AccessRequest::parse(std::span<const std::uint8_t> wire) {
  WireReader r(wire);
  if (r.u8() != static_cast<std::uint8_t>(MessageType::kAccessRequest))
    throw WireError("AccessRequest: wrong type tag");
  AccessRequest req;
  req.session_id = r.u64();
  req.epoch = r.u32();
  req.counter = r.u64();
  const std::span<const std::uint8_t> nonce = r.view(kNonceBytes);
  std::copy(nonce.begin(), nonce.end(), req.nonce.begin());
  req.payload = r.blob();
  const std::span<const std::uint8_t> mac = r.view(kMacBytes);
  std::copy(mac.begin(), mac.end(), req.mac.begin());
  r.expect_done();
  return req;
}

AccessRequest make_access_request(std::uint64_t session_id, std::uint32_t epoch,
                                  std::uint64_t counter,
                                  const std::array<std::uint8_t, kNonceBytes>& nonce,
                                  Bytes payload, std::span<const std::uint8_t> key) {
  AccessRequest req;
  req.session_id = session_id;
  req.epoch = epoch;
  req.counter = counter;
  req.nonce = nonce;
  req.payload = std::move(payload);
  req.mac = crypto::hmac_sha256(key, req.mac_input());
  return req;
}

Bytes AccessGrant::serialize() const {
  const auto input = grant_mac_input(*this);
  Bytes out;
  out.reserve(input.size() + kMacBytes);
  out.insert(out.end(), input.begin(), input.end());
  out.insert(out.end(), mac.begin(), mac.end());
  return out;
}

AccessGrant AccessGrant::parse(std::span<const std::uint8_t> wire) {
  WireReader r(wire);
  if (r.u8() != static_cast<std::uint8_t>(MessageType::kAccessGrant))
    throw WireError("AccessGrant: wrong type tag");
  AccessGrant grant;
  grant.session_id = r.u64();
  grant.counter = r.u64();
  const std::uint8_t status = r.u8();
  if (status >= kAccessStatusCount)
    throw WireError("AccessGrant: unknown status byte");
  grant.status = static_cast<AccessStatus>(status);
  const std::span<const std::uint8_t> mac = r.view(kMacBytes);
  std::copy(mac.begin(), mac.end(), grant.mac.begin());
  r.expect_done();
  return grant;
}

AccessGrant make_access_grant(std::uint64_t session_id, std::uint64_t counter,
                              AccessStatus status, const crypto::HmacKey& key) {
  AccessGrant grant{session_id, counter, status, {}};
  grant.mac = key.mac(grant_mac_input(grant));
  return grant;
}

AccessGrant make_access_grant(std::uint64_t session_id, std::uint64_t counter,
                              AccessStatus status, std::span<const std::uint8_t> key) {
  if (!key.empty()) return make_access_grant(session_id, counter, status, crypto::HmacKey(key));
  return AccessGrant{session_id, counter, status, {}};
}

bool verify_access_grant(const AccessGrant& grant, std::span<const std::uint8_t> key) {
  return crypto::digest_equal(crypto::hmac_sha256(key, grant_mac_input(grant)), grant.mac);
}

}  // namespace wavekey::server
