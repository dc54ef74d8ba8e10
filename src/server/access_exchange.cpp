#include "server/access_exchange.hpp"

namespace wavekey::server {

AccessExchange::AccessExchange(std::span<const std::uint8_t> wire) {
  try {
    request_ = AccessRequest::parse(wire);
  } catch (const protocol::WireError&) {
    return;
  }
  // parse() has checked expect_done(), so the wire is exactly
  // mac_input || mac.
  mac_input_ = wire.first(wire.size() - kMacBytes);
  parsed_ = true;
}

AccessStatus AccessExchange::authorize(KeyVault& vault, double now_s) {
  status_ = vault.authorize(request_, mac_input_, now_s, nullptr, &grant_key_);
  return status_;
}

Bytes AccessExchange::grant_wire() const {
  // An unparsed wire leaves request_ default-constructed: (0, 0).
  const AccessGrant grant =
      grant_key_ ? make_access_grant(request_.session_id, request_.counter, status_, *grant_key_)
                 : make_access_grant(request_.session_id, request_.counter, status_, {});
  return grant.serialize();
}

}  // namespace wavekey::server
