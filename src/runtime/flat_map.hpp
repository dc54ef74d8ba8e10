#pragma once

// runtime::FlatMap — SwissTable-style open-addressing hash map with an
// intrusive, index-based LRU list (DESIGN.md §13 "Vault data plane").
//
// Built for the KeyVault shard hot path: one contiguous control-byte array
// probed 16 (scalar) or 32 (AVX2) slots at a time through the
// runtime::cpu dispatch seam, a parallel u32 index array, and a stable slot
// pool that owns the entries. A lookup is one mixed hash, one vector
// compare, and (usually) one pool access — no per-entry heap nodes, no
// pointer-chasing `std::list` LRU.
//
// Layout (capacity C, always a power of two ≥ 32):
//   ctrl_  : C + 16 bytes. ctrl_[i] is kEmpty (0x80), kDeleted (0xFE
//            tombstone) or the 7-bit H2 tag of the resident key. The 16-byte
//            tail mirrors ctrl_[0..15] so a 32-byte probe window starting at
//            the last group wraps without a branch.
//   index_ : C u32 entries; index_[i] is the pool slot behind ctrl_[i]
//            (garbage unless ctrl_[i] holds a tag).
//   pool_  : stable entry storage {key, lru_prev, lru_next, value}. Slots
//            are recycled through a freelist threaded via lru_next. Pool
//            indices survive rehash — only ctrl_/index_ are rebuilt — so
//            callers may hold an index across inserts of *other* keys.
//
// Probing: H1 picks a 16-aligned group, the scan proceeds linearly group by
// group (wrapping), and every SIMD tier visits slots in the exact same
// order — the AVX2 kernel scans two consecutive groups per step and selects
// matches lowest-bit-first, which is precisely the scalar order. The map's
// state is therefore bit-identical under WAVEKEY_SIMD=scalar, which the
// forced-scalar differential test asserts.
//
// Deletion always writes a tombstone (never re-derives "empty", which would
// make state depend on group alignment); tombstones are purged by a
// same-size rehash when the load budget runs out. Max load factor is 7/8.
//
// Not thread-safe; the vault wraps one FlatMap per shard under the shard
// mutex.

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/cpu.hpp"

namespace wavekey::runtime {

namespace flat_map_detail {

inline constexpr std::uint8_t kCtrlEmpty = 0x80;
inline constexpr std::uint8_t kCtrlDeleted = 0xFE;
inline constexpr std::size_t kGroupWidth = 16;  // slots per control group
inline constexpr std::size_t kCtrlTail = 16;    // mirrored wrap window

/// Per-tier control-byte scan kernels. Masks are little-endian bit-per-byte:
/// bit i set means position (window_offset + i) matched. `width` is the
/// window the kernel consumes per step (16 or 32 bytes); all kernels select
/// matches lowest-bit-first so slot visit order is tier-independent.
struct ScanOps {
  std::uint32_t (*match_tag)(const std::uint8_t* window, std::uint8_t tag);
  std::uint32_t (*match_empty)(const std::uint8_t* window);
  std::uint32_t (*match_available)(const std::uint8_t* window);  // empty|deleted
  std::uint32_t width;
};

/// Kernels for the process-wide active tier (resolved once per call; cache
/// the pointer in long-lived structures).
const ScanOps& scan_ops();

/// Kernels for an explicit tier — lets tests sweep scalar against avx2
/// without touching the global tier.
const ScanOps& scan_ops_for(cpu::SimdTier tier);

/// AVX2 kernel table from flat_map_avx2.cpp, or nullptr when the binary was
/// built without AVX2 support for that TU.
const ScanOps* avx2_scan_ops();

/// splitmix64 finalizer: the map's whole-hash for u64 keys. Callers that
/// pre-shard by the same mix (KeyVault) still get independent bits here
/// because the shard only consumes the low bits of the mix once more.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline int countr_zero32(std::uint32_t m) { return __builtin_ctz(m); }

}  // namespace flat_map_detail

/// Open-addressing u64→V map with intrusive LRU. See file comment.
template <typename V>
class FlatMap {
 public:
  /// Sentinel pool index: "no entry" / end of LRU list.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  FlatMap() : ops_(&flat_map_detail::scan_ops()) {}
  explicit FlatMap(const flat_map_detail::ScanOps& ops) : ops_(&ops) {}

  FlatMap(FlatMap&&) noexcept = default;
  FlatMap& operator=(FlatMap&&) noexcept = default;
  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;

  /// Pool index of `key`, or kNil. Does not touch LRU order.
  std::uint32_t find_index(std::uint64_t key) const {
    if (capacity_ == 0) return kNil;
    const std::uint64_t h = flat_map_detail::mix64(key);
    const std::uint8_t tag = h2(h);
    const std::size_t mask = capacity_ - 1;
    std::size_t off = group_offset(h);
    for (std::size_t scanned = 0; scanned <= capacity_;
         scanned += ops_->width, off = (off + ops_->width) & mask) {
      const std::uint8_t* window = ctrl_.get() + off;
      std::uint32_t m = ops_->match_tag(window, tag);
      while (m != 0) {
        const std::size_t slot = (off + flat_map_detail::countr_zero32(m)) & mask;
        const std::uint32_t idx = index_[slot];
        if (pool_[idx].key == key) return idx;
        m &= m - 1;
      }
      if (ops_->match_empty(window) != 0) return kNil;
    }
    return kNil;
  }

  V* find(std::uint64_t key) {
    const std::uint32_t idx = find_index(key);
    return idx == kNil ? nullptr : &pool_[idx].value;
  }
  const V* find(std::uint64_t key) const {
    const std::uint32_t idx = find_index(key);
    return idx == kNil ? nullptr : &pool_[idx].value;
  }

  /// Finds `key` or inserts a default-constructed V for it. Returns
  /// {pool index, inserted}. A fresh insert becomes the LRU head (most
  /// recent); an existing entry's LRU position is NOT changed (call touch()).
  std::pair<std::uint32_t, bool> find_or_insert(std::uint64_t key) {
    if (capacity_ == 0) rehash(kMinCapacity);
    const std::uint64_t h = flat_map_detail::mix64(key);
    const std::uint8_t tag = h2(h);
    while (true) {
      const std::size_t mask = capacity_ - 1;
      std::size_t off = group_offset(h);
      std::size_t insert_slot = kNoSlot;
      for (;;) {
        const std::uint8_t* window = ctrl_.get() + off;
        std::uint32_t m = ops_->match_tag(window, tag);
        while (m != 0) {
          const std::size_t slot = (off + flat_map_detail::countr_zero32(m)) & mask;
          const std::uint32_t idx = index_[slot];
          if (pool_[idx].key == key) return {idx, false};
          m &= m - 1;
        }
        if (insert_slot == kNoSlot) {
          const std::uint32_t a = ops_->match_available(window);
          if (a != 0) insert_slot = (off + flat_map_detail::countr_zero32(a)) & mask;
        }
        if (ops_->match_empty(window) != 0) break;
        off = (off + ops_->width) & mask;
      }
      // Key absent. Taking an empty slot consumes load budget; if the
      // budget is gone, rehash (dropping tombstones, growing if genuinely
      // full) and retry the whole probe against the new arrays.
      const bool takes_empty = ctrl_.get()[insert_slot] == flat_map_detail::kCtrlEmpty;
      if (takes_empty && growth_left_ == 0) {
        rehash(size_ >= capacity_ / 2 ? capacity_ * 2 : capacity_);
        continue;
      }
      if (takes_empty) {
        --growth_left_;
      } else {
        --tombstones_;
      }
      const std::uint32_t idx = alloc_slot(key);
      set_ctrl(insert_slot, tag);
      index_[insert_slot] = idx;
      ++size_;
      lru_push_head(idx);
      return {idx, true};
    }
  }

  /// Erases `key`; returns false if absent.
  bool erase(std::uint64_t key) {
    const std::uint32_t idx = find_index(key);
    if (idx == kNil) return false;
    erase_index(idx);
    return true;
  }

  /// Erases the entry behind a pool index previously returned by
  /// find_index/find_or_insert/lru_tail. O(probe) to locate the ctrl slot.
  void erase_index(std::uint32_t idx) {
    const std::uint64_t key = pool_[idx].key;
    const std::size_t slot = ctrl_slot_of(key, idx);
    set_ctrl(slot, flat_map_detail::kCtrlDeleted);
    ++tombstones_;
    --size_;
    lru_unlink(idx);
    free_slot(idx);
  }

  /// Moves `idx` to the LRU head (most recently used).
  void touch(std::uint32_t idx) {
    if (lru_head_ == idx) return;
    lru_unlink(idx);
    lru_push_head(idx);
  }

  /// Pool index of the least recently used entry, or kNil when empty.
  std::uint32_t lru_tail() const { return lru_tail_; }

  std::uint64_t key_at(std::uint32_t idx) const { return pool_[idx].key; }
  V& at(std::uint32_t idx) { return pool_[idx].value; }
  const V& at(std::uint32_t idx) const { return pool_[idx].value; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  /// Ensures `n` entries fit without rehashing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 7 / 8 < n) cap *= 2;
    if (cap > capacity_) rehash(cap);
  }

  void clear() {
    if (capacity_ != 0) {
      std::memset(ctrl_.get(), flat_map_detail::kCtrlEmpty,
                  capacity_ + flat_map_detail::kCtrlTail);
    }
    pool_.clear();
    free_head_ = kNil;
    lru_head_ = lru_tail_ = kNil;
    size_ = 0;
    tombstones_ = 0;
    growth_left_ = capacity_ * 7 / 8;
  }

  /// Visits entries oldest-first (LRU tail → head): f(key, value).
  /// This is the canonical export order — re-inserting in this order
  /// reproduces the exact LRU list.
  template <typename F>
  void for_each_lru_oldest_first(F&& f) const {
    for (std::uint32_t idx = lru_tail_; idx != kNil; idx = pool_[idx].lru_prev) {
      f(pool_[idx].key, pool_[idx].value);
    }
  }

  /// Bytes of one pool slot: the entry plus its key and LRU links.
  static constexpr std::size_t slot_bytes() { return sizeof(Slot); }

  /// Heap bytes owned by the map (ctrl + index + pool storage).
  std::size_t memory_bytes() const {
    return (capacity_ == 0 ? 0 : capacity_ + flat_map_detail::kCtrlTail) +
           capacity_ * sizeof(std::uint32_t) + pool_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr std::size_t kMinCapacity = 32;  // ≥ 2 groups so the AVX2
                                                   // 32-byte window never
                                                   // overlaps itself
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t lru_prev = kNil;  // toward MRU head
    std::uint32_t lru_next = kNil;  // toward LRU tail; freelist link when free
    V value = V();
  };

  static std::uint8_t h2(std::uint64_t h) {
    return static_cast<std::uint8_t>(h >> 57);  // top 7 bits, 0x00..0x7F
  }

  std::size_t group_offset(std::uint64_t h) const {
    const std::size_t ngroups = capacity_ / flat_map_detail::kGroupWidth;
    return ((h >> 7) & (ngroups - 1)) * flat_map_detail::kGroupWidth;
  }

  /// Writes a ctrl byte, maintaining the mirrored tail.
  void set_ctrl(std::size_t slot, std::uint8_t v) {
    ctrl_.get()[slot] = v;
    if (slot < flat_map_detail::kCtrlTail) ctrl_.get()[capacity_ + slot] = v;
  }

  /// Locates the ctrl slot that holds pool index `idx` for `key` by probing.
  std::size_t ctrl_slot_of(std::uint64_t key, std::uint32_t idx) const {
    const std::uint64_t h = flat_map_detail::mix64(key);
    const std::uint8_t tag = h2(h);
    const std::size_t mask = capacity_ - 1;
    std::size_t off = group_offset(h);
    for (;;) {
      std::uint32_t m = ops_->match_tag(ctrl_.get() + off, tag);
      while (m != 0) {
        const std::size_t slot = (off + flat_map_detail::countr_zero32(m)) & mask;
        if (index_[slot] == idx) return slot;
        m &= m - 1;
      }
      off = (off + ops_->width) & mask;
    }
  }

  std::uint32_t alloc_slot(std::uint64_t key) {
    std::uint32_t idx;
    if (free_head_ != kNil) {
      idx = free_head_;
      free_head_ = pool_[idx].lru_next;
      pool_[idx].value = V();
    } else {
      idx = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    pool_[idx].key = key;
    return idx;
  }

  void free_slot(std::uint32_t idx) {
    pool_[idx].lru_next = free_head_;
    free_head_ = idx;
  }

  void lru_push_head(std::uint32_t idx) {
    pool_[idx].lru_prev = kNil;
    pool_[idx].lru_next = lru_head_;
    if (lru_head_ != kNil) pool_[lru_head_].lru_prev = idx;
    lru_head_ = idx;
    if (lru_tail_ == kNil) lru_tail_ = idx;
  }

  void lru_unlink(std::uint32_t idx) {
    const std::uint32_t p = pool_[idx].lru_prev;
    const std::uint32_t n = pool_[idx].lru_next;
    if (p != kNil) pool_[p].lru_next = n; else lru_head_ = n;
    if (n != kNil) pool_[n].lru_prev = p; else lru_tail_ = p;
  }

  /// Rebuilds ctrl_/index_ at `new_cap` (which may equal capacity_ — that
  /// purges tombstones). Pool slots and LRU links are untouched, so pool
  /// indices held by callers stay valid.
  void rehash(std::size_t new_cap) {
    // Pool indices and LRU links are 32-bit; a table this large is outside
    // the design envelope (and the check lets the compiler bound the memset).
    if (new_cap > (std::size_t{1} << 32))
      throw std::length_error("FlatMap: capacity exceeds 2^32 slots");
    auto new_ctrl = std::make_unique<std::uint8_t[]>(new_cap + flat_map_detail::kCtrlTail);
    std::memset(new_ctrl.get(), flat_map_detail::kCtrlEmpty,
                new_cap + flat_map_detail::kCtrlTail);
    auto new_index = std::make_unique<std::uint32_t[]>(new_cap);

    const std::size_t old_cap = capacity_;
    ctrl_.swap(new_ctrl);
    index_.swap(new_index);
    capacity_ = new_cap;
    (void)old_cap;

    // Re-place every live entry; all slots are empty so the first available
    // slot in probe order is the insert position (tier-independent).
    for (std::uint32_t idx = lru_head_; idx != kNil; idx = pool_[idx].lru_next) {
      const std::uint64_t h = flat_map_detail::mix64(pool_[idx].key);
      const std::uint8_t tag = h2(h);
      const std::size_t mask = capacity_ - 1;
      std::size_t off = group_offset(h);
      for (;;) {
        const std::uint32_t a = ops_->match_available(ctrl_.get() + off);
        if (a != 0) {
          const std::size_t slot = (off + flat_map_detail::countr_zero32(a)) & mask;
          set_ctrl(slot, tag);
          index_[slot] = idx;
          break;
        }
        off = (off + ops_->width) & mask;
      }
    }
    tombstones_ = 0;
    growth_left_ = capacity_ * 7 / 8 - size_;
  }

  const flat_map_detail::ScanOps* ops_;
  std::unique_ptr<std::uint8_t[]> ctrl_;
  std::unique_ptr<std::uint32_t[]> index_;
  std::vector<Slot> pool_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
  std::size_t growth_left_ = 0;
  std::uint32_t free_head_ = kNil;
  std::uint32_t lru_head_ = kNil;
  std::uint32_t lru_tail_ = kNil;
};

}  // namespace wavekey::runtime
