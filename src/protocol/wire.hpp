#pragma once

// Binary wire helpers for the key-agreement messages. Fixed little-endian
// framing, length-prefixed fields, explicit type tags — malformed or
// truncated messages throw WireError, which the protocol engine converts
// into a clean session abort (never undefined behaviour on attacker input).
//
// Thread-safety: readers and writers are cheap single-use value objects
// with no shared state; confine each instance to one thread. Distinct
// instances on distinct buffers are trivially safe in parallel.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace wavekey::protocol {

using Bytes = std::vector<std::uint8_t>;

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Sequential writer into a byte buffer. Two modes:
///  - owned (default ctor): writes into an internal vector, handed out by
///    take(); one 64-byte block is reserved up front, which covers every
///    fixed-layout control message in one allocation;
///  - external sink: writes append into a caller-provided vector (the
///    cluster envelopes reserve theirs at the exact frame size first, so
///    serializing and CRC-sealing cost one allocation). take() is a
///    contract violation in this mode.
class WireWriter {
 public:
  WireWriter() { owned_.reserve(64); }
  explicit WireWriter(Bytes* sink) : sink_(sink) {}

  void u8(std::uint8_t v) { buf().push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);          ///< raw, no length
  void blob(std::span<const std::uint8_t> data);           ///< u32 length + raw
  Bytes take();  ///< owned mode only; throws WireError on a sink writer

 private:
  Bytes& buf() { return sink_ ? *sink_ : owned_; }
  Bytes owned_;
  Bytes* sink_ = nullptr;
};

/// WireWriter's encoding into a stack array of exactly N bytes, for
/// fixed-layout inputs (MAC inputs, audit records, KDF salts) that must not
/// allocate. Writing past N throws WireError; take() throws unless exactly N
/// bytes were written.
template <std::size_t N>
class FixedWireWriter {
 public:
  void u8(std::uint8_t v) { put(v, 1); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void bytes(std::span<const std::uint8_t> data) {
    if (data.size() > N - pos_) throw WireError("FixedWireWriter: overflow");
    std::copy(data.begin(), data.end(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ += data.size();
  }
  std::array<std::uint8_t, N> take() const {
    if (pos_ != N) throw WireError("FixedWireWriter: layout shorter than its buffer");
    return buf_;
  }

 private:
  void put(std::uint64_t v, std::size_t n) {
    if (n > N - pos_) throw WireError("FixedWireWriter: overflow");
    for (std::size_t i = 0; i < n; ++i) buf_[pos_++] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  std::array<std::uint8_t, N> buf_{};
  std::size_t pos_ = 0;
};

/// Sequential reader over a byte buffer; throws WireError on underrun.
/// view/view_blob return subspans of the source buffer — zero-copy, valid
/// only while the source outlives them unmodified. bytes/blob are the
/// owning (copying) forms for fields that must escape the buffer.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::span<const std::uint8_t> view(std::size_t n);  ///< raw, exact n, no copy
  std::span<const std::uint8_t> view_blob();          ///< u32 length + raw, no copy
  Bytes bytes(std::size_t n);  ///< raw, exact n (copies)
  Bytes blob();                ///< u32 length + raw (copies)
  bool done() const { return pos_ == data_.size(); }
  void expect_done() const;

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Message type tags of the WaveKey key-agreement protocol (Fig. 4).
enum class MessageType : std::uint8_t {
  kMsgA = 1,       ///< batched OT first messages  (M_A,M / M_A,R)
  kMsgB = 2,       ///< batched OT responses        (M_B,M / M_B,R)
  kMsgE = 3,       ///< batched OT ciphertext pairs (M_E,M / M_E,R)
  kChallenge = 4,  ///< ECC helper + nonce
  kResponse = 5,   ///< HMAC(nonce, K)
  // Post-establishment access protocol (src/server, DESIGN.md §9): requests
  // against the backend vault keyed by the session established above.
  kAccessRequest = 6,  ///< session id, epoch, counter, nonce, payload, HMAC
  kAccessGrant = 7,    ///< session id, counter, status, HMAC
  // Gateway <-> vault-cluster envelopes (src/server/cluster.hpp): access
  // requests multiplexed over the CRC-framed WAN transport, retried under a
  // stable request id so retransmissions stay idempotent.
  kClusterRequest = 8,   ///< request id, tenant, attempt, inner AccessRequest
  kClusterResponse = 9,  ///< request id, status, inner AccessGrant
  // Offline-grant subsystem (src/server/grants.hpp): compact signed
  // capability an actuator can verify with no vault connectivity.
  kGrantToken = 10,  ///< tenant, tag, actuator, counter, scope, epoch, expiry, HMAC
};

}  // namespace wavekey::protocol
