#pragma once

// ChaCha20 block function (RFC 8439) — the keystream generator behind the
// library's CSPRNG and the hash-stream cipher's nonce expansion.
//
// Bulk requests (whole 64-byte blocks) bypass the internal block buffer and
// run a multi-block kernel selected through runtime::cpu::active_tier():
// a 4-block AVX2 kernel (two blocks per 256-bit row vector) or the portable
// scalar block. Both tiers produce the identical RFC 8439 keystream — the
// integer datapath is exact — which the SIMD sweep tests assert
// byte-for-byte.

#include <array>
#include <cstdint>
#include <span>

namespace wavekey::crypto {

/// Raw ChaCha20 keystream generator.
class ChaCha20 {
 public:
  /// @param key    32 bytes
  /// @param nonce  12 bytes
  /// @param counter initial 32-bit block counter
  ChaCha20(std::span<const std::uint8_t> key, std::span<const std::uint8_t> nonce,
           std::uint32_t counter = 0);

  /// Produces the next keystream bytes (any length; spans blocks as needed).
  void keystream(std::span<std::uint8_t> out);

  /// XORs `data` in place with the keystream (encrypt == decrypt).
  void crypt(std::span<std::uint8_t> data);

 private:
  void refill();
  // Writes `nblocks` keystream blocks to `out` (tier-dispatched) and
  // advances the block counter.
  void generate_blocks(std::uint8_t* out, std::size_t nblocks);

  std::array<std::uint32_t, 16> state_;
  std::array<std::uint8_t, 64> block_;
  std::size_t block_pos_ = 64;  // empty
};

// Tier-explicit block kernels: write `nblocks` consecutive keystream blocks
// (64 bytes each) for the given state, with block b using counter
// state[12] + b (mod 2^32). The state itself is not modified. Exported for
// differential tests and the bench self-check; the *_avx2 kernel must only
// be invoked when runtime::cpu::detected_tier() allows (it delegates to the
// scalar kernel when its translation unit is built without AVX2).
void chacha20_blocks_scalar(const std::uint32_t state[16], std::uint8_t* out,
                            std::size_t nblocks);
void chacha20_blocks_avx2(const std::uint32_t state[16], std::uint8_t* out,
                          std::size_t nblocks);

}  // namespace wavekey::crypto
