#include "crypto/chacha20.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace wavekey::crypto {
namespace {

constexpr std::uint32_t load32_le(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) | (std::uint32_t{p[2]} << 16) |
         (std::uint32_t{p[3]} << 24);
}

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d) {
  a += b;
  d = std::rotl(d ^ a, 16);
  c += d;
  b = std::rotl(b ^ c, 12);
  a += b;
  d = std::rotl(d ^ a, 8);
  c += d;
  b = std::rotl(b ^ c, 7);
}

}  // namespace

ChaCha20::ChaCha20(std::span<const std::uint8_t> key, std::span<const std::uint8_t> nonce,
                   std::uint32_t counter) {
  if (key.size() != 32) throw std::invalid_argument("ChaCha20: key must be 32 bytes");
  if (nonce.size() != 12) throw std::invalid_argument("ChaCha20: nonce must be 12 bytes");
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state_[4 + i] = load32_le(key.data() + 4 * i);
  state_[12] = counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load32_le(nonce.data() + 4 * i);
}

void ChaCha20::refill() {
  std::array<std::uint32_t, 16> x = state_;
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = x[i] + state_[i];
    block_[i * 4 + 0] = static_cast<std::uint8_t>(v);
    block_[i * 4 + 1] = static_cast<std::uint8_t>(v >> 8);
    block_[i * 4 + 2] = static_cast<std::uint8_t>(v >> 16);
    block_[i * 4 + 3] = static_cast<std::uint8_t>(v >> 24);
  }
  ++state_[12];
  block_pos_ = 0;
}

void ChaCha20::keystream(std::span<std::uint8_t> out) {
  std::size_t pos = 0;
  while (pos < out.size()) {
    if (block_pos_ == block_.size()) refill();
    const std::size_t n = std::min(block_.size() - block_pos_, out.size() - pos);
    std::memcpy(out.data() + pos, block_.data() + block_pos_, n);
    pos += n;
    block_pos_ += n;
  }
}

}  // namespace wavekey::crypto
