#include "crypto/hmac.hpp"

#include <array>
#include <cstring>

namespace wavekey::crypto {

namespace {

constexpr std::size_t kBlock = 64;
using Block = std::array<std::uint8_t, kBlock>;

/// RFC 2104 key blocks: the key (pre-hashed first if longer than a block)
/// zero-padded to one block, XORed with 0x36 and 0x5c.
void key_pads(std::span<const std::uint8_t> key, Block& ipad, Block& opad) {
  Block k{};
  if (key.size() > kBlock) {
    const Digest256 khd = Sha256::hash(key);
    std::memcpy(k.data(), khd.data(), khd.size());
  } else if (!key.empty()) {
    std::memcpy(k.data(), key.data(), key.size());
  }
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
}

}  // namespace

static_assert(sizeof(HmacKey) == 64, "HmacKey holds exactly two 32-byte midstates");

HmacKey::HmacKey(std::span<const std::uint8_t> key) {
  Block ipad, opad;
  key_pads(key, ipad, opad);
  Sha256 h;
  inner_ = h.update(ipad).midstate();
  h.reset();
  outer_ = h.update(opad).midstate();
}

Digest256 HmacKey::mac(std::span<const std::uint8_t> data) const {
  return mac(std::initializer_list<std::span<const std::uint8_t>>{data});
}

Digest256 HmacKey::mac(std::initializer_list<std::span<const std::uint8_t>> parts) const {
  Sha256 inner = Sha256::resume(inner_, 1);
  for (std::span<const std::uint8_t> part : parts) inner.update(part);
  const Digest256 inner_digest = inner.finalize();
  Sha256 outer = Sha256::resume(outer_, 1);
  outer.update(inner_digest);
  return outer.finalize();
}

Digest256 hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> data) {
  return HmacKey(key).mac(data);
}

bool digest_equal(const Digest256& a, const Digest256& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return diff == 0;
}

}  // namespace wavekey::crypto
