#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "runtime/cpu.hpp"

namespace wavekey::crypto {
namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

}  // namespace

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_len_ = 0;
  finalized_ = false;
}

Sha256::Midstate Sha256::midstate() const {
  if (finalized_ || buffer_len_ != 0)
    throw std::logic_error("Sha256::midstate off a block boundary");
  return state_;
}

Sha256 Sha256::resume(const Midstate& midstate, std::uint64_t blocks) {
  return Sha256(midstate, blocks * 64);
}

Sha256::Sha256(const Midstate& midstate, std::uint64_t absorbed_bytes)
    : state_(midstate), total_len_(absorbed_bytes) {}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  if (finalized_) throw std::logic_error("Sha256::update after finalize");
  if (data.empty()) return *this;  // an empty span may carry a null data()
  total_len_ += data.size();
  std::size_t pos = 0;
  // Top up a partially filled buffer first.
  if (buffer_len_ != 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    pos += take;
    if (buffer_len_ == 64) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // Feed whole blocks straight from the input — one kernel call, no copy.
  const std::size_t whole = (data.size() - pos) / 64;
  if (whole != 0) {
    process_blocks(data.data() + pos, whole);
    pos += whole * 64;
  }
  if (pos < data.size()) {
    buffer_len_ = data.size() - pos;
    std::memcpy(buffer_.data(), data.data() + pos, buffer_len_);
  }
  return *this;
}

Digest256 Sha256::finalize() {
  if (finalized_) throw std::logic_error("Sha256::finalize called twice");
  finalized_ = true;

  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad = 0x80;
  buffer_[buffer_len_++] = pad;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    process_blocks(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  process_blocks(buffer_.data(), 1);

  // Big-endian word stores, not byte stores: an HMAC feeds this digest
  // straight into the outer hash, whose wide loads would otherwise stall on
  // store forwarding.
  Digest256 out;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t be = std::endian::native == std::endian::little
                                 ? __builtin_bswap32(state_[i])
                                 : state_[i];
    std::memcpy(out.data() + 4 * i, &be, sizeof(be));
  }
  return out;
}

Digest256 Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

void Sha256::process_blocks(const std::uint8_t* blocks, std::size_t nblocks) {
  // SHA-NI compresses a block in ~1/10 the cycles of the scalar loop; it is
  // gated behind the same tier policy as every other vectorized kernel, so
  // WAVEKEY_SIMD=scalar exercises the portable path below.
  if (sha256_shani_compiled() && runtime::cpu::sha_ni_active()) {
    sha256_process_blocks_shani(state_.data(), blocks, nblocks);
    return;
  }
  for (std::size_t n = 0; n < nblocks; ++n, blocks += 64) {
    const std::uint8_t* block = blocks;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i)
      w[i] = (std::uint32_t{block[i * 4]} << 24) | (std::uint32_t{block[i * 4 + 1]} << 16) |
             (std::uint32_t{block[i * 4 + 2]} << 8) | std::uint32_t{block[i * 4 + 3]};
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
  }
}

}  // namespace wavekey::crypto
