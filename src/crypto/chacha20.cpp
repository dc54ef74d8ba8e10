#include "crypto/chacha20.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "runtime/cpu.hpp"

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

void chacha20_blocks_scalar(const std::uint32_t state[16], std::uint8_t* out,
                            std::size_t nblocks) {
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    std::array<std::uint32_t, 16> x;
    std::memcpy(x.data(), state, 64);
    x[12] = state[12] + static_cast<std::uint32_t>(blk);
    const std::array<std::uint32_t, 16> input = x;
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
    std::uint8_t* o = out + blk * 64;
    for (int i = 0; i < 16; ++i) {
      const std::uint32_t v = x[i] + input[i];
      o[i * 4 + 0] = static_cast<std::uint8_t>(v);
      o[i * 4 + 1] = static_cast<std::uint8_t>(v >> 8);
      o[i * 4 + 2] = static_cast<std::uint8_t>(v >> 16);
      o[i * 4 + 3] = static_cast<std::uint8_t>(v >> 24);
    }
  }
}

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

void ChaCha20::generate_blocks(std::uint8_t* out, std::size_t nblocks) {
  using runtime::cpu::SimdTier;
  if (runtime::cpu::active_tier() >= SimdTier::kAvx2) {
    chacha20_blocks_avx2(state_.data(), out, nblocks);
  } else {
    chacha20_blocks_scalar(state_.data(), out, nblocks);
  }
  state_[12] += static_cast<std::uint32_t>(nblocks);
}

void ChaCha20::refill() {
  generate_blocks(block_.data(), 1);
  block_pos_ = 0;
}

void ChaCha20::keystream(std::span<std::uint8_t> out) {
  std::size_t pos = 0;
  // Drain any buffered partial block first.
  while (block_pos_ < 64 && pos < out.size()) out[pos++] = block_[block_pos_++];
  // Whole blocks go straight to the destination through the bulk kernel.
  const std::size_t nblocks = (out.size() - pos) / 64;
  if (nblocks > 0) {
    generate_blocks(out.data() + pos, nblocks);
    pos += nblocks * 64;
  }
  // Final partial block through the buffer, keeping the unused tail.
  if (pos < out.size()) {
    refill();
    while (pos < out.size()) out[pos++] = block_[block_pos_++];
  }
}

void ChaCha20::crypt(std::span<std::uint8_t> data) {
  std::size_t pos = 0;
  while (block_pos_ < 64 && pos < data.size()) data[pos++] ^= block_[block_pos_++];
  // Bulk-XOR whole blocks via a small keystream staging buffer.
  std::uint8_t ks[256];
  while (data.size() - pos >= 64) {
    const std::size_t nblocks = std::min<std::size_t>((data.size() - pos) / 64, 4);
    generate_blocks(ks, nblocks);
    const std::size_t nbytes = nblocks * 64;
    for (std::size_t i = 0; i < nbytes; ++i) data[pos + i] ^= ks[i];
    pos += nbytes;
  }
  if (pos < data.size()) {
    refill();
    while (pos < data.size()) data[pos++] ^= block_[block_pos_++];
  }
}

}  // namespace wavekey::crypto
