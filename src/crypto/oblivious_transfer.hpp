#pragma once

// Group helpers of the 1-out-of-2 Oblivious Transfer, following the
// computationally efficient protocol of Chou & Orlandi that the paper
// adopts (SIV-D1, Fig. 3):
//
//   sender:    a <- Z_u,  M_a = g^a
//   receiver:  b <- Z_u,  M_b = g^b            (to get secret 0)
//                          M_b = M_a * g^b      (to get secret 1)
//   sender:    k_0 = H(M_b^a), k_1 = H((M_b / M_a)^a)
//              e_i = E(secret_i, k_i)
//   receiver:  k   = H(M_a^b)  decrypts exactly the chosen e.
//
// The group is Z_p^* with p = 2^255 - 19 (see field25519.hpp). The OT
// itself is batched, as in the paper: protocol::PadSender and
// protocol::PadReceiver (protocol/key_agreement.hpp) hold a whole batch of
// l_s instances as arrays and run every exponentiation as one of five
// Fe25519::pow_batch calls over it. This file keeps only what depends on
// the group: how an exponent is drawn and negated, and how a group element
// becomes a key.

#include <array>
#include <cstdint>
#include <stdexcept>

#include "crypto/drbg.hpp"
#include "crypto/field25519.hpp"
#include "crypto/sha256.hpp"

namespace wavekey::crypto {

/// An OT exponent (a or b), 32 little-endian bytes.
using OtExponent = std::array<std::uint8_t, 32>;

/// Draws one OT exponent from the DRBG: 32 bytes with the top bit cleared.
OtExponent draw_ot_exponent(Drbg& rng);

/// 2(p - 1) - a, an exponent congruent to -a modulo the group order p - 1,
/// so x^negate_ot_exponent(a) == (x^a)^-1 for nonzero x (Fermat). The
/// sender's k1 factor M_a^(-a) = g^(-a^2) uses it.
OtExponent negate_ot_exponent(const OtExponent& a);

/// The symmetric key for a group element: SHA256(canonical bytes).
Digest256 ot_derive_key(const Fe25519& element);

/// Thrown when a PadReceiver phase runs out of order (respond twice, or
/// M_B or the pad keys requested before respond): a caller bug, not a
/// peer's.
class OtStateError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

}  // namespace wavekey::crypto
