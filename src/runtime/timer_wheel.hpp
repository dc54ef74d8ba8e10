#pragma once

// runtime::TimerWheel — a hierarchical timing wheel (Varghese & Lauck,
// SOSP '87) on integer ticks that the owner supplies. The wheel reads no
// clock: EventLoop maps steady_clock onto 100 us ticks for sleep_for, and
// each KeyVault shard maps its caller-supplied seconds onto 10 ms ticks for
// TTL expiry (DESIGN.md §12.1, §13.3).
//
// 4 levels x 64 slots. An entry is filed into the level whose span covers
// its remaining delta (L0: < 64 ticks, L1: < 64^2, L2: < 64^3, L3:
// everything else) at the slot addressed by the matching 6-bit field of its
// absolute deadline. When a level-k index wraps, the slot at the new
// level-(k+1) index is cascaded: its entries are re-placed by their fresh
// delta, drifting down one level per wrap until they fire out of L0. A
// deadline beyond the 64^4-tick span sits in L3 and re-cascades until it is
// within reach. Arming and firing are O(1) amortized; a cascade touches one
// slot.
//
// advance_to(target) returns exactly the entries whose deadline <= target,
// never one early. It costs O(1) when the wheel is empty, so an owner that
// idles does not pay for the idle ticks later, and a jump of the whole span
// or more costs O(entries): entries not yet due are re-placed, not fired.
//
// Not thread-safe; each owner guards its wheel with its own lock.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace wavekey::runtime {

template <typename T>
class TimerWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kLevelBits = 6;
  static constexpr std::uint64_t kSlots = std::uint64_t{1} << kLevelBits;  // 64
  /// Ticks the four levels span together (64^4); a farther advance re-places
  /// every entry instead of stepping.
  static constexpr std::uint64_t kSpan = std::uint64_t{1} << (kLevelBits * kLevels);

  struct Entry {
    T item;
    std::uint64_t deadline;
  };

  /// The last tick advance_to reached.
  std::uint64_t now() const { return now_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Files `item` to fire once an advance reaches `deadline`. A deadline at
  /// or before now() is already due: the next advance_to returns it,
  /// whatever its target.
  void arm(T item, std::uint64_t deadline) {
    ++size_;
    if (deadline <= now_) {
      due_.push_back(Entry{std::move(item), deadline});
    } else {
      place(Entry{std::move(item), deadline});
    }
  }

  /// Moves now() forward to `target` (a target behind now() moves nothing)
  /// and appends to `fired` every entry whose deadline is <= now(): the
  /// entries armed already due first, then the rest in deadline order.
  void advance_to(std::uint64_t target, std::vector<T>& fired) {
    for (Entry& e : due_) fire(e, fired);
    due_.clear();
    if (target <= now_) return;
    if (target - now_ >= kSpan) {
      jump(target, fired);
      return;
    }
    while (now_ < target) {
      if (size_ == 0) {  // nothing left to fire or cascade on the way
        now_ = target;
        return;
      }
      step(fired);
    }
  }

  /// Pre: !empty(). The tick an owner must advance to next so no entry
  /// fires late: now() if an entry is already due, else the first non-empty
  /// L0 slot before the next L0 wrap, else that wrap (where a cascade may
  /// bring entries down). An owner that sleeps until then therefore wakes
  /// at least once per 64 ticks while entries wait in higher levels.
  std::uint64_t next_wake() const {
    if (!due_.empty()) return now_;
    const std::uint64_t boundary = (now_ | (kSlots - 1)) + 1;
    for (std::uint64_t k = now_ + 1; k < boundary; ++k) {
      if (!slots_[0][k & (kSlots - 1)].empty()) return k;
    }
    return boundary;
  }

  /// Heap bytes held by the slot vectors.
  std::size_t memory_bytes() const {
    std::size_t entries = due_.capacity();
    for (const auto& level : slots_) {
      for (const auto& slot : level) entries += slot.capacity();
    }
    return entries * sizeof(Entry);
  }

 private:
  void fire(Entry& e, std::vector<T>& fired) {
    fired.push_back(std::move(e.item));
    --size_;
  }

  /// Pre: e.deadline > now_.
  void place(Entry e) {
    const std::uint64_t delta = e.deadline - now_;
    int level = 0;
    while (level < kLevels - 1 && delta >= (std::uint64_t{1} << (kLevelBits * (level + 1)))) {
      ++level;
    }
    const std::uint64_t idx = (e.deadline >> (kLevelBits * level)) & (kSlots - 1);
    slots_[static_cast<std::size_t>(level)][idx].push_back(std::move(e));
  }

  /// Processes tick now_ + 1: cascades every level whose index wrapped, then
  /// fires the L0 slot, whose entries are all due exactly at this tick.
  void step(std::vector<T>& fired) {
    const std::uint64_t t = ++now_;
    int wrapped = 0;
    for (int l = 1; l < kLevels; ++l) {
      if ((t & ((std::uint64_t{1} << (kLevelBits * l)) - 1)) != 0) break;
      wrapped = l;
    }
    // Top-down, so re-placed entries land in slots this tick still visits
    // or in lower levels.
    for (int l = wrapped; l >= 1; --l) {
      auto& slot = slots_[static_cast<std::size_t>(l)][(t >> (kLevelBits * l)) & (kSlots - 1)];
      std::vector<Entry> moved = std::move(slot);
      slot.clear();
      for (Entry& e : moved) {
        if (e.deadline <= t) {
          fire(e, fired);
        } else {
          place(std::move(e));
        }
      }
    }
    auto& due = slots_[0][t & (kSlots - 1)];
    for (Entry& e : due) fire(e, fired);
    due.clear();
  }

  /// A jump of kSpan ticks or more: stepping would cost the jump, so take
  /// every entry out, fire the due ones in deadline order and re-place the
  /// rest around the new now_.
  void jump(std::uint64_t target, std::vector<T>& fired) {
    std::vector<Entry> all;
    all.reserve(size_);
    for (auto& level : slots_) {
      for (auto& slot : level) {
        std::move(slot.begin(), slot.end(), std::back_inserter(all));
        slot.clear();
      }
    }
    now_ = target;
    std::stable_sort(all.begin(), all.end(),
                     [](const Entry& a, const Entry& b) { return a.deadline < b.deadline; });
    for (Entry& e : all) {
      if (e.deadline <= target) {
        fire(e, fired);
      } else {
        place(std::move(e));
      }
    }
  }

  std::uint64_t now_ = 0;
  std::size_t size_ = 0;     ///< entries armed and not yet fired
  std::vector<Entry> due_;   ///< armed at or before now_; fired by the next advance
  std::array<std::array<std::vector<Entry>, kSlots>, kLevels> slots_;
};

}  // namespace wavekey::runtime
