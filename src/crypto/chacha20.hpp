#pragma once

// ChaCha20 block function (RFC 8439) — the keystream generator behind the
// library's CSPRNG. One portable kernel: the protocol's draws are short
// (32-byte OT exponents, a 36-byte codeword message, pads and nonces of a
// few bytes), so each block is computed into a 64-byte buffer and draws are
// served from it.

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

 private:
  // Computes the block at the current counter into block_ and advances the
  // counter.
  void refill();

  std::array<std::uint32_t, 16> state_;
  std::array<std::uint8_t, 64> block_;
  std::size_t block_pos_ = 64;  // empty
};

}  // namespace wavekey::crypto
