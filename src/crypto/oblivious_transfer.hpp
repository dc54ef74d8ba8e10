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
// layer can batch many instances into single network messages. Neither a,
// M_a, b, g^b nor the receiver's key H(M_a^b) depends on the choice bit, so
// all of them can be computed before the choice is known (DESIGN.md §4,
// item 6).

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/field25519.hpp"

namespace wavekey::crypto {

using Bytes = std::vector<std::uint8_t>;

/// Sender side of one OT instance.
class OtSender {
 public:
  /// Draws the ephemeral exponent `a` from the DRBG and precomputes M_a
  /// together with k1_factor_ = g^(-a^2 mod (p-1)) (see encrypt()).
  explicit OtSender(Drbg& rng);

  /// The first protocol message M_a.
  const Fe25519& first_message() const { return ma_; }

  /// Given the receiver's M_b, encrypts the two secrets. Element i of the
  /// result can only be decrypted by a receiver that chose i.
  /// Throws std::invalid_argument if M_b is zero (malformed/forged message).
  std::pair<Bytes, Bytes> encrypt(const Fe25519& mb, std::span<const std::uint8_t> secret0,
                                  std::span<const std::uint8_t> secret1) const;

  /// The exponentiation step of encrypt() for a whole batch: M_b_i^{a_i}
  /// for senders[i] and mbs[i], in one Fe25519::pow_batch call. Throws
  /// std::invalid_argument if any M_b is zero or the sizes differ.
  static std::vector<Fe25519> k0_elements(std::span<const OtSender> senders,
                                          std::span<const Fe25519> mbs);

  /// The rest of encrypt(), given k0_element = M_b^a from k0_elements().
  std::pair<Bytes, Bytes> encrypt_k0(const Fe25519& k0_element,
                                     std::span<const std::uint8_t> secret0,
                                     std::span<const std::uint8_t> secret1) const;

 private:
  std::array<std::uint8_t, 32> a_;
  Fe25519 ma_;
  // g^(-a^2 mod (p-1)), fixed per instance. encrypt() uses the identity
  //   (M_b / M_a)^a = M_b^a * (g^a)^-a = M_b^a * g^(-a^2),
  // so k_1's group element is one field multiply on top of k_0's — no
  // inverse and no second exponentiation per call. (This supersedes merely
  // caching M_a^-1, which would still cost a full M_b-dependent
  // exponentiation per encrypt.)
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
///   1. construct: draw b and compute g^b (needs only the DRBG);
///   2. respond(choice, M_a): M_b = g^b or M_a * g^b (one field multiply);
///   3. derive_keys(): caches k = H(M_a^b), which needs only M_a, for a
///      whole batch of instances at once.
/// decrypt() uses the cached key, or derives it on the spot if phase 3 was
/// skipped.
class OtReceiver {
 public:
  explicit OtReceiver(Drbg& rng);

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

  /// Decrypts the chosen ciphertext from the sender's pair. Throws
  /// OtStateError before respond().
  Bytes decrypt(const std::pair<Bytes, Bytes>& ciphertexts) const;

  /// Decrypts the chosen ciphertext under `pad_key`, this instance's entry
  /// of keys().
  Bytes decrypt(const std::pair<Bytes, Bytes>& ciphertexts, const Bytes& pad_key) const;

 private:
  bool responded_ = false;
  bool choice_ = false;
  std::array<std::uint8_t, 32> b_;
  Fe25519 gb_;
  Fe25519 ma_;
  Fe25519 mb_;
  Bytes key_;  ///< H(M_a^b) once derive_keys() ran, else empty
};

/// Derives the symmetric key for a group element: SHA256(canonical bytes).
Bytes ot_derive_key(const Fe25519& element);

}  // namespace wavekey::crypto
