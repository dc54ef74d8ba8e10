#include "crypto/hkdf.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/hmac.hpp"

namespace wavekey::crypto {

namespace {

constexpr std::size_t kHashLen = 32;
constexpr std::size_t kMaxOkm = 255 * kHashLen;  // RFC 5869 bound on L

}  // namespace

Digest256 hkdf_extract(std::span<const std::uint8_t> salt, std::span<const std::uint8_t> ikm) {
  if (salt.empty()) {
    const std::uint8_t zero_salt[32] = {0};
    return hmac_sha256(zero_salt, ikm);
  }
  return hmac_sha256(salt, ikm);
}

void hkdf_expand(const Digest256& prk, std::span<const std::uint8_t> info,
                 std::span<std::uint8_t> okm) {
  if (okm.size() > kMaxOkm) throw std::invalid_argument("hkdf_expand: length > 255*HashLen");
  const HmacKey key(prk);
  Digest256 t{};  // T(i) = HMAC(PRK, T(i-1) || info || i), T(0) empty
  std::uint8_t counter = 1;
  for (std::size_t pos = 0; pos < okm.size(); pos += kHashLen, ++counter) {
    const std::span<const std::uint8_t> prev =
        counter == 1 ? std::span<const std::uint8_t>{} : std::span<const std::uint8_t>(t);
    t = key.mac({prev, info, std::span<const std::uint8_t>(&counter, 1)});
    const std::size_t take = std::min(kHashLen, okm.size() - pos);
    std::copy_n(t.begin(), take, okm.begin() + static_cast<std::ptrdiff_t>(pos));
  }
}

std::vector<std::uint8_t> hkdf_expand(const Digest256& prk, std::span<const std::uint8_t> info,
                                      std::size_t length) {
  if (length > kMaxOkm) throw std::invalid_argument("hkdf_expand: length > 255*HashLen");
  std::vector<std::uint8_t> okm(length);
  hkdf_expand(prk, info, okm);
  return okm;
}

std::vector<std::uint8_t> hkdf_sha256(std::span<const std::uint8_t> salt,
                                      std::span<const std::uint8_t> ikm,
                                      std::span<const std::uint8_t> info, std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

Digest256 hkdf_labeled(std::span<const std::uint8_t> master,
                       std::span<const std::span<const std::uint8_t>> labels) {
  Digest256 out{};
  std::copy_n(master.begin(), std::min(master.size(), out.size()), out.begin());
  std::span<const std::uint8_t> key = master;
  for (std::span<const std::uint8_t> label : labels) {
    hkdf_expand(hkdf_extract(label, key), {}, out);
    key = out;
  }
  return out;
}

}  // namespace wavekey::crypto
