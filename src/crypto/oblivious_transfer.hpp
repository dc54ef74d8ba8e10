#pragma once

// 1-out-of-2 Oblivious Transfer, following the computationally efficient
// protocol of Chou & Orlandi that the paper adopts (SIV-D1, Fig. 3):
//
//   sender:    a <- Z_u,  M_a = g^a
//   receiver:  b <- Z_u,  M_b = g^b            (to get secret 0)
//                          M_b = M_a * g^b      (to get secret 1)
//   sender:    k_0 = H(M_b^a), k_1 = H((M_b / M_a)^a)
//              e_i = E(secret_i, k_i)
//   receiver:  k   = H(M_a^b)  decrypts exactly the chosen e.
//
// The group is Z_p^* with p = 2^255 - 19 (see field25519.hpp). The classes
// below expose the three protocol messages explicitly so the key-agreement
// layer can batch many instances into single network messages, and they are
// only made in batches: every exponentiation of the protocol is one of five
// Fe25519::pow_batch calls over a whole batch (g^a and the k1 factors in
// OtSender::batch, g^b in OtReceiver::batch, M_b^a in
// OtSender::k0_elements, M_a^b in OtReceiver::keys). Neither a, M_a, b, g^b
// nor the receiver's key H(M_a^b) depends on the choice bit, so all of them
// can be computed before the choice is known (DESIGN.md §4, item 6).

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/field25519.hpp"

namespace wavekey::crypto {

using Bytes = std::vector<std::uint8_t>;

/// An OT exponent (a or b), 32 little-endian bytes.
using OtExponent = std::array<std::uint8_t, 32>;

/// Draws one OT exponent from the DRBG: 32 bytes with the top bit cleared.
OtExponent draw_ot_exponent(Drbg& rng);

/// Sender side of one OT instance.
class OtSender {
 public:
  /// One sender per exponent a_i: every M_a = g^{a_i} in one
  /// Fe25519::pow_batch call, then every k1 factor g^(-a_i^2) in a second
  /// (see k1_factor_).
  static std::vector<OtSender> batch(std::span<const OtExponent> exponents);

  /// The first protocol message M_a.
  const Fe25519& first_message() const { return ma_; }

  /// M_b_i^{a_i} for senders[i] and mbs[i], in one Fe25519::pow_batch
  /// call. Throws std::invalid_argument if any M_b is zero
  /// (malformed/forged message) or the sizes differ.
  static std::vector<Fe25519> k0_elements(std::span<const OtSender> senders,
                                          std::span<const Fe25519> mbs);

  /// Encrypts the two secrets, given k0_element = M_b^a from k0_elements().
  /// Element i of the result can only be decrypted by a receiver that
  /// chose i.
  std::pair<Bytes, Bytes> encrypt_k0(const Fe25519& k0_element,
                                     std::span<const std::uint8_t> secret0,
                                     std::span<const std::uint8_t> secret1) const;

 private:
  OtSender(const OtExponent& a, const Fe25519& ma, const Fe25519& k1_factor)
      : a_(a), ma_(ma), k1_factor_(k1_factor) {}

  OtExponent a_;
  Fe25519 ma_;
  // g^(-a^2 mod (p-1)), fixed per instance. encrypt_k0() uses the identity
  //   (M_b / M_a)^a = M_b^a * (g^a)^-a = M_b^a * g^(-a^2),
  // so k_1's group element is one field multiply on top of k_0's — no
  // inverse and no second M_b-dependent exponentiation.
  Fe25519 k1_factor_;
};

/// Thrown when an OtReceiver/PadReceiver phase runs out of order (respond
/// twice, or M_b requested before respond): a caller bug, not a peer's.
class OtStateError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Receiver side of one OT instance, in three phases so that everything
/// except one multiply can run before the choice bit is known:
///   1. batch(): every b_i and g^{b_i} (needs only the drawn exponents);
///   2. respond(choice, M_a): M_b = g^b or M_a * g^b (one field multiply);
///   3. derive_keys(): caches k = H(M_a^b), which needs only M_a, for a
///      whole batch of instances at once.
/// keys() returns the cached keys, or derives them on the spot if phase 3
/// was skipped; decrypt() takes this instance's key.
class OtReceiver {
 public:
  /// One receiver per exponent b_i, every g^{b_i} in one
  /// Fe25519::pow_batch call.
  static std::vector<OtReceiver> batch(std::span<const OtExponent> exponents);

  /// @param choice  which of the sender's two secrets to obtain
  /// @param ma      the sender's first message
  /// Throws std::invalid_argument if M_a is zero, OtStateError if called
  /// twice.
  void respond(bool choice, const Fe25519& ma);

  /// The response message M_b. Throws OtStateError before respond().
  const Fe25519& response() const;

  /// Every instance's key H(M_a^b): cached where derive_keys() ran, the
  /// rest from one Fe25519::pow_batch call. Throws OtStateError before
  /// respond().
  static std::vector<Bytes> keys(std::span<const OtReceiver> receivers);

  /// Computes and caches every instance's keys(). Throws OtStateError
  /// before respond().
  static void derive_keys(std::span<OtReceiver> receivers);

  /// Decrypts the chosen ciphertext under `pad_key`, this instance's entry
  /// of keys().
  Bytes decrypt(const std::pair<Bytes, Bytes>& ciphertexts, const Bytes& pad_key) const;

 private:
  OtReceiver(const OtExponent& b, const Fe25519& gb) : b_(b), gb_(gb) {}

  bool responded_ = false;
  bool choice_ = false;
  OtExponent b_;
  Fe25519 gb_;
  Fe25519 ma_;
  Fe25519 mb_;
  Bytes key_;  ///< H(M_a^b) once derive_keys() ran, else empty
};

/// Derives the symmetric key for a group element: SHA256(canonical bytes).
Bytes ot_derive_key(const Fe25519& element);

}  // namespace wavekey::crypto
