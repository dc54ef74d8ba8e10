#pragma once

// Seeded lossy-link model for the key-agreement transport. Each direction of
// the link gets its own fault profile: packet loss, bit corruption,
// duplication, explicit reordering hold-back, and latency jitter with a
// configurable distribution. The model composes with the adversary
// `Interceptor` — every *physical frame copy* (original, retransmission, or
// duplicate) is offered to the adversary after the channel faults are
// applied, so an attacker can be stacked on top of a bad link.
//
// Two ways to use it:
//  * `transmit()` — the full model; returns every delivery of a frame with
//    its arrival time. This is what the ARQ transport in session.cpp drives.
//  * `as_interceptor()` — adapter for the legacy single-shot
//    `run_key_agreement` path, which models one delivery per message: loss
//    maps to a drop, corruption mutates the payload, jitter maps to delay.
//    Duplication and reordering are inexpressible through that interface and
//    are ignored by the adapter (the ARQ path exercises them).
//
// Thread-safety: a FaultyChannel advances seeded PRNG streams on every
// transmit, so it is externally synchronized — give each session its own
// channel instance (the reproducibility of a fault trace depends on a
// single consumer draining the stream in order). The reader gateway builds
// one per request, seeded from the request id, for the same reason.

#include <vector>

#include "numeric/rng.hpp"
#include "protocol/session.hpp"

namespace wavekey::protocol {

/// Shape of the latency-jitter distribution.
enum class JitterDistribution : std::uint8_t {
  kNone,         ///< no jitter
  kUniform,      ///< U[0, jitter_s)
  kExponential,  ///< Exp with mean jitter_s (heavy-ish tail)
  kNormal,       ///< |N(0, jitter_s)| (folded normal)
};

/// Fault profile of one link direction.
struct LinkFaultConfig {
  double loss = 0.0;               ///< P(a frame copy never arrives)
  double corrupt = 0.0;            ///< P(a delivered copy has flipped bits)
  std::size_t corrupt_bits_max = 4;///< 1..max bits flipped per corrupted copy
  double duplicate = 0.0;          ///< P(an extra copy is delivered)
  double reorder = 0.0;            ///< P(a copy is held back past its successors)
  double reorder_hold_s = 0.020;   ///< extra hold time for reordered copies
  JitterDistribution jitter = JitterDistribution::kNone;
  double jitter_s = 0.0;           ///< jitter scale (see JitterDistribution)
};

/// Full channel configuration: independent per-direction profiles + seed.
struct FaultyChannelConfig {
  LinkFaultConfig mobile_to_server{};
  LinkFaultConfig server_to_mobile{};
  std::uint64_t seed = 1;

  /// Same profile in both directions.
  static FaultyChannelConfig symmetric(const LinkFaultConfig& faults, std::uint64_t seed = 1);
  /// Typical indoor WiFi: light loss, a few ms of jitter.
  static FaultyChannelConfig wifi_indoor(std::uint64_t seed = 1);
  /// Congested 2.4 GHz band: heavy loss, duplication, 10 ms-scale jitter.
  static FaultyChannelConfig congested(std::uint64_t seed = 1);
};

/// One delivered copy of a transmitted frame.
struct Delivery {
  double arrival_s = 0.0;
  Bytes payload;
};

/// Deterministic (seeded) fault-injecting link. Not thread-safe; one
/// instance models one link: one session's, or one gateway request's.
class FaultyChannel {
 public:
  explicit FaultyChannel(const FaultyChannelConfig& config);

  /// Sends one frame at `msg.send_time`; returns every copy that arrives,
  /// sorted by arrival time (possibly empty). `base_latency_s` is the
  /// fault-free one-way latency; `adversary` (optional) sees each surviving
  /// copy and may tamper, delay, or drop it.
  std::vector<Delivery> transmit(const InFlightMessage& msg, double base_latency_s,
                                 const Interceptor& adversary = {});

  /// Adapter for the single-shot session path (see file comment).
  Interceptor as_interceptor();

  const FaultyChannelConfig& config() const { return config_; }

 private:
  const LinkFaultConfig& faults_for(const std::string& from) const;

  FaultyChannelConfig config_;
  Rng rng_;
};

}  // namespace wavekey::protocol
