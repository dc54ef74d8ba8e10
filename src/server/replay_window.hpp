#pragma once

// Per-session anti-replay window (DESIGN.md §9.2): a sliding bitmap over
// the request counter, IPsec/DTLS style. The window tracks the highest
// counter accepted so far plus a `bits`-wide bitmap of recently-seen
// counters below it, so modestly out-of-order arrivals are admitted exactly
// once while duplicates and too-old counters are rejected:
//
//   counter >  max      -> fresh; slide the window forward
//   max-bits < counter <= max -> fresh iff its bit is unset
//   counter <= max-bits -> rejected (fell off the window; indistinguishable
//                          from a replay, so treated as one)
//
// check_and_update must only be called AFTER the request's MAC verified —
// otherwise an attacker could burn future counters with forged requests
// (KeyVault::authorize enforces this ordering under the shard lock).
//
// Thread-safety: none; callers synchronize (the vault holds its shard lock).
//
// Storage: 32 bytes, asserted below — {max_seen u64, inline words /
// heap pointer (a 16-byte union), nwords u32, any bool, 3 padding}. Windows
// up to 128 bits (the vault default) keep their two bitmap words inline and
// cost zero heap allocations, which matters at a million resident sessions.
// Wider windows (replay_window_bits 192..4096) own exactly one heap block
// of nwords words, reused when reconfigured to the same width. The window
// is move-only: nothing copies a live window (replica handoff ships a
// Snapshot instead), so a copy would only ever be an accidental allocation.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace wavekey::server {

/// Monotonic-counter acceptance predicate, shared by ReplayWindow's slide
/// decision and the offline grant verifier's strict per-actuator counters
/// (server/grants.hpp): true iff `candidate` is strictly ahead of `seen` —
/// the only direction a monotonic counter may move. Total over the full u64
/// range: at seen == UINT64_MAX the stream is exhausted (nothing advances),
/// and candidate == 0 can never advance past anything, which is why strict
/// counter streams mint from 1 and use 0 as the "nothing seen" floor.
inline bool counter_advance(std::uint64_t seen, std::uint64_t candidate) {
  return candidate > seen;
}

class ReplayWindow {
 public:
  /// @param bits  window width; rounded up to a multiple of 64, minimum 64.
  explicit ReplayWindow(std::size_t bits = 128) { reconfigure(bits); }
  ~ReplayWindow() { release(); }

  /// Moves leave `other` a blank 128-bit window.
  ReplayWindow(ReplayWindow&& other) noexcept { take(other); }
  ReplayWindow& operator=(ReplayWindow&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ReplayWindow(const ReplayWindow&) = delete;
  ReplayWindow& operator=(const ReplayWindow&) = delete;

  /// Heap bytes a `bits`-wide window owns (0 when its words fit inline).
  static std::size_t heap_bytes_for(std::size_t bits) {
    const std::uint32_t words = words_for(bits);
    return words > kInlineWords ? words * sizeof(std::uint64_t) : 0;
  }

  /// Resizes to `bits` (same rounding as the constructor) and resets all
  /// state. Used when a pooled session entry is recycled with a different
  /// window width; a heap block of the right size is reused in place.
  void reconfigure(std::size_t bits) {
    const std::uint32_t words = words_for(bits);
    if (words != nwords_) {
      release();
      if (words > kInlineWords) heap_ = new std::uint64_t[words];
      nwords_ = words;
    }
    reset();
  }

  std::size_t bits() const { return std::size_t{nwords_} * 64; }

  /// True iff `counter` is fresh; marks it seen. False on duplicate or
  /// counter older than the window.
  bool check_and_update(std::uint64_t counter) {
    if (!any_) {
      any_ = true;
      max_seen_ = counter;
      set_bit(0);
      return true;
    }
    if (counter_advance(max_seen_, counter)) {
      slide(counter - max_seen_);
      max_seen_ = counter;
      set_bit(0);
      return true;
    }
    const std::uint64_t age = max_seen_ - counter;  // 0 == max itself
    if (age >= bits()) return false;                // fell off the window
    if (get_bit(age)) return false;                 // duplicate
    set_bit(age);
    return true;
  }

  /// Forgets everything (key rotation starts a fresh counter epoch).
  void reset() {
    any_ = false;
    max_seen_ = 0;
    std::fill_n(words(), nwords_, 0);
  }

  /// Highest counter accepted so far (0 if nothing seen yet).
  std::uint64_t max_seen() const { return any_ ? max_seen_ : 0; }

  /// Portable window state — what replica handoff ships between vault nodes
  /// (src/server/cluster.*). Restoring a snapshot on the replica makes the
  /// promoted node reject exactly the counters the failed primary already
  /// accepted: the zero-accepted-replays invariant survives the migration.
  struct Snapshot {
    bool any = false;
    std::uint64_t max_seen = 0;
    std::vector<std::uint64_t> words;
  };

  Snapshot snapshot() const {
    const std::uint64_t* w = words();
    return Snapshot{any_, max_seen_, std::vector<std::uint64_t>(w, w + nwords_)};
  }

  /// Adopts `s`. A snapshot from a wider window is truncated to this width
  /// (oldest counters fall off — they would be rejected as too-old anyway);
  /// a narrower one zero-fills the missing words.
  void restore(const Snapshot& s) {
    any_ = s.any;
    max_seen_ = s.max_seen;
    std::uint64_t* w = words();
    for (std::size_t i = 0; i < nwords_; ++i) w[i] = i < s.words.size() ? s.words[i] : 0;
  }

 private:
  static constexpr std::uint32_t kInlineWords = 2;  // 128 bits without heap
  static_assert(kInlineWords == 2, "clear_inline() and take() spell out both words");

  /// Bitmap words a `bits`-wide window holds (the constructor's rounding).
  static std::uint32_t words_for(std::size_t bits) {
    const std::size_t words = bits <= 64 ? 1 : (bits - 1) / 64 + 1;
    if (words > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("ReplayWindow: width exceeds 2^38 bits");
    return static_cast<std::uint32_t>(words);
  }

  bool on_heap() const { return nwords_ > kInlineWords; }
  std::uint64_t* words() { return on_heap() ? heap_ : inline_; }
  const std::uint64_t* words() const { return on_heap() ? heap_ : inline_; }

  /// Frees the heap block (if any), leaving an empty 128-bit inline window.
  void release() {
    if (on_heap()) delete[] heap_;
    clear_inline();
  }

  /// Makes the inline words the active storage, zeroed, at their width.
  void clear_inline() {
    inline_[0] = 0;
    inline_[1] = 0;
    nwords_ = kInlineWords;
  }

  /// Adopts `other`'s state and storage (this holds no heap block); leaves
  /// `other` an empty 128-bit inline window.
  void take(ReplayWindow& other) {
    max_seen_ = other.max_seen_;
    any_ = other.any_;
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else {
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    }
    nwords_ = other.nwords_;
    other.clear_inline();
    other.any_ = false;
    other.max_seen_ = 0;
  }

  // Bit `age` means counter (max_seen_ - age); bit 0 lives in words()[0] LSB.
  bool get_bit(std::uint64_t age) const {
    return (words()[age / 64] >> (age % 64)) & 1;
  }
  void set_bit(std::uint64_t age) { words()[age / 64] |= std::uint64_t{1} << (age % 64); }

  /// Ages every seen counter by `distance` (the new max is `distance` ahead).
  void slide(std::uint64_t distance) {
    std::uint64_t* w = words();
    if (distance >= bits()) {
      std::fill_n(w, nwords_, 0);
      return;
    }
    const std::size_t word_shift = static_cast<std::size_t>(distance / 64);
    const std::size_t bit_shift = static_cast<std::size_t>(distance % 64);
    for (std::size_t i = nwords_; i-- > 0;) {
      std::uint64_t v = 0;
      if (i >= word_shift) {
        v = w[i - word_shift] << bit_shift;
        if (bit_shift != 0 && i > word_shift) v |= w[i - word_shift - 1] >> (64 - bit_shift);
      }
      w[i] = v;
    }
  }

  std::uint64_t max_seen_ = 0;
  union {
    std::uint64_t inline_[kInlineWords] = {};  // active while !on_heap()
    std::uint64_t* heap_;                      // active while on_heap()
  };
  std::uint32_t nwords_ = kInlineWords;
  bool any_ = false;
};

static_assert(sizeof(ReplayWindow) <= 32, "ReplayWindow must stay within 32 bytes");

}  // namespace wavekey::server
