#pragma once

// Admission control for the access server (DESIGN.md §9.3). Two distinct
// rejection mechanisms, surfaced as two distinct statuses:
//
//  * per-tenant token buckets (kRateLimited) — a misbehaving tenant burns
//    its own budget without crowding out the others; and
//  * load shedding (kShed) — when the server's admission window (requests
//    admitted but not yet finished, AccessServerConfig::queue_capacity) is
//    full, new requests are rejected *immediately* on the submit path
//    instead of queueing into latency that would blow deadlines anyway.
//
// Rejecting is O(1) and callback-synchronous, so overload degrades into
// cheap typed errors rather than unbounded queueing. The pairing engine
// and the reader gateway keep a window of the same shape
// (runtime::AdmissionWindow) but block the submitter instead of shedding
// (backpressure): a gesture tap is worth waiting for, an access request
// that would miss its deadline is not.
//
// Time is caller-supplied seconds, like the vault.
//
// Thread-safety: TokenBucket is externally synchronized; TenantLimiter's
// methods are safe from any thread (one mutex over the bucket map — cheap
// next to the HMAC work behind it, and the map is bounded).

#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace wavekey::server {

/// Classic token bucket: `rate_per_s` tokens/s refill, `burst` capacity.
class TokenBucket {
 public:
  TokenBucket(double rate_per_s, double burst)
      : rate_(rate_per_s > 0.0 ? rate_per_s : 0.0),
        burst_(burst >= 1.0 ? burst : 1.0),
        tokens_(burst_) {}

  /// Consumes one token if available. `now_s` must be monotonic per bucket.
  bool try_acquire(double now_s) {
    refill(now_s);
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

  double tokens(double now_s) {
    refill(now_s);
    return tokens_;
  }

 private:
  void refill(double now_s) {
    if (now_s > last_s_) {
      tokens_ += (now_s - last_s_) * rate_;
      if (tokens_ > burst_) tokens_ = burst_;
      last_s_ = now_s;
    }
  }

  double rate_;
  double burst_;
  double tokens_;
  double last_s_ = 0.0;
};

struct AdmissionConfig {
  double rate_per_s = 200.0;     ///< sustained per-tenant request rate
  double burst = 32.0;           ///< per-tenant burst allowance
  std::size_t max_tenants = 4096;  ///< bucket-map bound (oldest NOT evicted;
                                   ///< unknown tenants beyond it are limited)
};

/// Per-tenant token buckets behind one mutex.
class TenantLimiter {
 public:
  explicit TenantLimiter(const AdmissionConfig& config) : config_(config) {}

  /// True iff tenant may proceed. Tenants past the map bound are refused
  /// outright (fail-closed — an attacker minting tenant ids cannot grow the
  /// map without bound, and legitimate tenants are long-lived).
  bool admit(std::uint64_t tenant_id, double now_s) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = buckets_.find(tenant_id);
    if (it == buckets_.end()) {
      if (buckets_.size() >= config_.max_tenants) return false;
      it = buckets_.emplace(tenant_id, TokenBucket(config_.rate_per_s, config_.burst)).first;
    }
    return it->second.try_acquire(now_s);
  }

  std::size_t tenants() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return buckets_.size();
  }

 private:
  AdmissionConfig config_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, TokenBucket> buckets_;
};

}  // namespace wavekey::server
