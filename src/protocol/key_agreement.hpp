#pragma once

// The WaveKey key-agreement protocol (SIV-D2, Fig. 4): a bidirectional
// batched 1-out-of-2 OT followed by fuzzy-commitment reconciliation and an
// HMAC key confirmation.
//
// Roles. Both parties hold an l_s-bit key-seed (S_M / S_R). Each party
// generates l_s pairs of random l_b-bit pads and *obliviously* serves them
// to the other: the receiver's seed bit i selects which pad of pair i it
// learns. The preliminary keys interleave own-choice pads with received
// pads,
//   K_M = x_1^{sm_1} || y_1^{sm_1} || ... || x_{l_s}^{sm_{l_s}} || y_{l_s}^{sm_{l_s}}
//   K_R = x_1^{sr_1} || y_1^{sr_1} || ... ,
// so segment i agrees iff sm_i == sr_i: seed agreement transfers to key
// agreement segment-wise, and an eavesdropper — who sees only OT traffic —
// learns nothing about either pad stream. Reconciliation: the mobile sends a
// fuzzy commitment of K_M sized for eta; the server recovers exactly K_M
// from its own K_R and answers HMAC(N, K). Message batching follows the
// paper: all l_s OT instances share one M_A / M_B / M_E message per
// direction.
//
// The classes are pure message-in/message-out state machines; transport,
// timing (the tau deadline), and adversaries live in protocol/session.hpp.
//
// Thread-safety: each PadSender/PadReceiver owns only per-instance state
// and touches no globals; the free functions are pure. Distinct instances
// and distinct argument sets are safe to drive from distinct threads
// concurrently; a single instance is externally synchronized. This
// reentrancy is what lets core::PairingEngine run N sessions in parallel.

#include <optional>
#include <utility>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/oblivious_transfer.hpp"
#include "ecc/fuzzy_commitment.hpp"
#include "numeric/bitvec.hpp"
#include "protocol/wire.hpp"

namespace wavekey::protocol {

/// Protocol-level parameters, derived from the WaveKey hyperparameters.
struct AgreementParams {
  std::size_t seed_bits = 48;  ///< l_s
  std::size_t key_bits = 256;  ///< l_k (final key length)
  double eta = 0.10;           ///< ECC error-correction rate

  std::size_t pad_bits() const { return (key_bits + 2 * seed_bits - 1) / (2 * seed_bits); }
  std::size_t pad_bytes() const { return (pad_bits() + 7) / 8; }
  /// Preliminary-key length: 2 * l_s * l_b bits (>= l_k; truncated at the end).
  std::size_t prelim_key_bits() const { return 2 * seed_bits * pad_bits(); }
  /// Worst-case corrupted bytes the fuzzy commitment must absorb: every
  /// tolerated seed-bit mismatch corrupts one 2*l_b-bit segment.
  std::size_t fuzzy_byte_budget() const;
};

/// OT-sender role for one party's own pad pairs (x or y stream): the
/// sender half of a batch of l_s OT instances, held as arrays. Every
/// exponentiation is one crypto::Fe25519::pow_batch call over the batch:
/// g^{a_i} and the k1 factors in the constructor, M_b_i^{a_i} in
/// make_cipher_message.
class PadSender {
 public:
  /// Draws every exponent a_i and its pad pair from the DRBG (a_i, then
  /// the pair, per instance), then computes every M_a_i = g^{a_i} and every
  /// k1 factor M_a_i^{2(p-1)-a_i} = g^{-a_i^2}.
  PadSender(const AgreementParams& params, crypto::Drbg& rng);

  /// The batched first message (M_A direction).
  Bytes message_a() const;

  /// Given the peer's batched response (M_B), produces the batched
  /// ciphertext message (M_E). All of M_B is parsed and checked before the
  /// one batch of M_b_i^{a_i} runs. Throws WireError on malformed input (a
  /// non-canonical element included) and std::invalid_argument on a zero
  /// element. The DRBG is not drawn; the argument stays because
  /// perfbench's driver calls this signature.
  Bytes make_cipher_message(const Bytes& msg_b, crypto::Drbg& rng) const;

  /// The party's own pad i, variant `bit`.
  const BitVec& pad(std::size_t i, bool bit) const;

 private:
  std::vector<crypto::OtExponent> a_;
  std::vector<crypto::Fe25519> ma_;
  // g^(-a_i^2 mod (p-1)). make_cipher_message uses the identity
  //   (M_b / M_a)^a = M_b^a * (g^a)^-a = M_b^a * g^(-a^2),
  // so k_1's group element is one field multiply on top of k_0's: no
  // inverse and no second M_b-dependent exponentiation.
  std::vector<crypto::Fe25519> k1_factor_;
  std::vector<std::pair<BitVec, BitVec>> pads_;
};

/// OT-receiver role against the peer's pad stream, choices = own key-seed:
/// the receiver half of a batch of l_s OT instances, held as arrays, with
/// one phase for the whole batch. Three phases, so that only one multiply
/// per instance waits for the seed:
///   1. construct from the DRBG alone: every b_i and, in one
///      crypto::Fe25519::pow_batch call, every g^{b_i};
///   2. respond(seed, M_A): M_b_i = g^{b_i} or M_a_i * g^{b_i}, the batched
///      response M_B;
///   3. derive_keys(): caches every pad key H(M_a_i^{b_i}) (needs M_A only).
/// receive_pads() uses the cached keys, or derives them all if phase 3 was
/// skipped. Phase 3, either way, is one crypto::Fe25519::pow_batch call.
class PadReceiver {
 public:
  PadReceiver(const AgreementParams& params, crypto::Drbg& rng);

  /// Phases 1 and 2 in one step, with the same DRBG draws.
  PadReceiver(const AgreementParams& params, const BitVec& seed, const Bytes& msg_a,
              crypto::Drbg& rng);

  /// Consumes the peer's M_A with the own seed bits as choices. All of M_A
  /// is parsed and checked before any state changes, so a rejected M_A
  /// leaves the receiver ready for another. Throws std::invalid_argument
  /// on a seed of the wrong length or a zero element, WireError on
  /// malformed input, crypto::OtStateError if called twice.
  void respond(const BitVec& seed, const Bytes& msg_a);

  /// The batched response message (M_B). Throws crypto::OtStateError
  /// before respond().
  Bytes message_b() const;

  /// Derives and caches every pad key. Throws crypto::OtStateError before
  /// respond().
  void derive_keys();

  /// Decrypts the chosen pads from the peer's M_E. Throws WireError on
  /// malformed input, crypto::OtStateError before respond().
  std::vector<BitVec> receive_pads(const Bytes& msg_e) const;

 private:
  enum class Phase { kPrecomputed, kResponded, kKeysDerived };

  /// H(M_a_i^{b_i}) for every instance, in one pow_batch call.
  std::vector<crypto::Digest256> pad_keys() const;

  AgreementParams params_;
  Phase phase_ = Phase::kPrecomputed;
  std::vector<crypto::OtExponent> b_;
  std::vector<crypto::Fe25519> gb_;
  BitVec choices_;                         ///< the seed, from respond()
  std::vector<crypto::Fe25519> ma_, mb_;   ///< from respond()
  std::vector<crypto::Digest256> keys_;    ///< from derive_keys()
};

/// Assembles the preliminary key K = own_1 || recv_1 || own_2 || recv_2 ...
/// where own_i is this party's pad of pair i selected by its own seed bit
/// and recv_i the pad received through OT.
BitVec assemble_preliminary_key(const AgreementParams& params, const BitVec& seed,
                                const PadSender& own, const std::vector<BitVec>& received,
                                bool own_first);

/// Mobile-side reconciliation: fuzzy-commit K_M, emit Challenge = helper||N.
struct Challenge {
  Bytes helper;
  Bytes nonce;  ///< 16 bytes

  Bytes serialize() const;
  static Challenge parse(const AgreementParams& params, const Bytes& wire);
};

/// Builds the mobile's challenge for its preliminary key.
Challenge make_challenge(const AgreementParams& params, const BitVec& key_m, crypto::Drbg& rng);

/// Server side: recovers K_M from the challenge and its own K_R; returns
/// nullopt if reconciliation fails (seed disagreement beyond eta).
std::optional<BitVec> recover_key(const AgreementParams& params, const Challenge& challenge,
                                  const BitVec& key_r);

/// Response = HMAC-SHA256(nonce) keyed with the recovered key.
Bytes make_response(const Challenge& challenge, const BitVec& key);

/// Mobile-side verification of the response against its own key.
bool verify_response(const Challenge& challenge, const BitVec& key_m, const Bytes& response);

/// Final session key: K truncated to l_k bits.
BitVec finalize_key(const AgreementParams& params, const BitVec& prelim_key);

}  // namespace wavekey::protocol
