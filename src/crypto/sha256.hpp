#pragma once

// SHA-256 (FIPS 180-4), implemented from scratch. Used as the hash H(.) in
// the OT protocol, inside HMAC for the key-confirmation step, and to derive
// stream-cipher keystreams. midstate()/resume() expose the chaining value at
// a block boundary so crypto::HmacKey can cache a key's ipad/opad blocks.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace wavekey::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  /// The eight chaining words after a whole number of 64-byte blocks.
  using Midstate = std::array<std::uint32_t, 8>;

  Sha256();

  /// Absorbs more input.
  Sha256& update(std::span<const std::uint8_t> data);

  /// Finalizes and returns the digest. The hasher must not be updated after
  /// finalizing; call reset() to reuse.
  Digest256 finalize();

  /// Restores the initial state.
  void reset();

  /// Chaining value of the blocks absorbed so far. Throws std::logic_error
  /// unless the input so far is a whole number of blocks and the hasher has
  /// not been finalized.
  Midstate midstate() const;

  /// A hasher that continues from `midstate` as if `blocks` 64-byte blocks
  /// had already been absorbed (their count enters the final length field).
  static Sha256 resume(const Midstate& midstate, std::uint64_t blocks);

  /// One-shot convenience.
  static Digest256 hash(std::span<const std::uint8_t> data);

 private:
  Sha256(const Midstate& midstate, std::uint64_t absorbed_bytes);
  void process_blocks(const std::uint8_t* blocks, std::size_t nblocks);

  // The SHA-NI kernel moves the state as two 16-byte vectors; aligning it
  // keeps them off cache-line splits (~5 % on a one-shot HMAC).
  alignas(16) Midstate state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// SHA-NI block compression kernel (sha256_shani.cpp, compiled with -msha on
/// x86). Runs `nblocks` 64-byte blocks through the FIPS 180-4 compression,
/// updating `state` in place. Callers must gate on
/// runtime::cpu::sha_ni_active(); Sha256 does this internally.
void sha256_process_blocks_shani(std::uint32_t state[8], const std::uint8_t* blocks,
                                 std::size_t nblocks);

/// True iff the SHA-NI kernel was compiled into this binary (x86 toolchain
/// with -msha support). Hardware/runtime gating is separate: see
/// runtime::cpu::sha_ni_active().
bool sha256_shani_compiled();

}  // namespace wavekey::crypto
