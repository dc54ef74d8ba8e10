#include "server/key_vault.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "protocol/wire.hpp"
#include "runtime/flat_map.hpp"
#include "runtime/timer_wheel.hpp"

namespace wavekey::server {

namespace {

/// splitmix64 finalizer — decorrelates sequential session ids. Identical to
/// the FlatMap's internal mix; the vault consumes bits 32.. for shard
/// routing, the map consumes bits 7.. for group selection and 57.. for the
/// tag, so the two never alias (header comment).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p *= 2;
  return p;
}

/// Bounded optimistic retries before the HMAC moves under the lock. Two
/// consecutive losses require two distinct mutations of the same session
/// racing this request; more than a handful means the session is being
/// hammered with rotates and the under-lock verify is the honest choice.
constexpr int kMaxOptimisticRetries = 4;

/// The TTL wheel tick containing `t_s` on the vault's seconds axis (10 ms
/// ticks; 64^4 of them span ~46 h).
std::uint64_t tick_of(double t_s) {
  constexpr double kTickS = 0.010;
  if (t_s <= 0.0) return 0;
  const double ticks = t_s / kTickS;
  if (ticks >= 9.0e18) return 9'000'000'000'000'000'000ull;
  return static_cast<std::uint64_t>(ticks);
}

}  // namespace

SessionKey derive_rotated_key(const SessionKey& old_key, std::uint64_t session_id,
                              std::uint32_t new_epoch) {
  constexpr std::string_view kLabel = "wavekey-vault-rotate";
  protocol::FixedWireWriter<kLabel.size() + 4> salt;
  salt.bytes(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(kLabel.data()),
                                           kLabel.size()));
  salt.u32(new_epoch);
  protocol::FixedWireWriter<8> info;
  info.u64(session_id);
  SessionKey out{};
  crypto::hkdf_expand(crypto::hkdf_extract(salt.take(), old_key), info.take(), out);
  return out;
}

/// Per-session state, stored by value in the shard's FlatMap pool. Fields
/// run widest-first so the only padding is the 3 bytes after `revoked`:
/// 32 key + 8 deadline + 8 version + 4 epoch + 1 revoked + 3 + 32 window =
/// 88 B, a 104 B pool slot with the map's key and LRU links.
struct KeyVault::Entry {
  SessionKey key{};
  double expires_at_s = 0.0;  ///< valid while now < expires_at_s
  /// Mutation stamp from Shard::version_clock: install / rotate / revoke /
  /// import each bump it, so an optimistic reader can detect ANY concurrent
  /// mutation — including erase + reinstall of the same id into a recycled
  /// pool slot (the clock is shard-monotonic, never per-slot, so there is
  /// no ABA).
  std::uint64_t version = 0;
  std::uint32_t epoch = 0;
  bool revoked = false;
  ReplayWindow window;
};

struct KeyVault::Shard {
  mutable std::mutex mutex;
  runtime::FlatMap<Entry> map;
  /// TTL arms by session id. Arms are ADVISORY: purge re-checks
  /// `now >= expires_at_s` against the live entry before erasing, so a
  /// stale arm (rotate leaves the old one in place) and duplicates are
  /// harmless; a fired-but-live session is re-armed at its current deadline.
  runtime::TimerWheel<std::uint64_t> wheel;
  /// Arms whose deadline the wheel has already reached, as (expires_at_s,
  /// id). Each expires before tick wheel.now() begins, so the first sweep
  /// in that tick empties the list; earlier sweeps take out only what has
  /// expired.
  std::vector<std::pair<double, std::uint64_t>> late;
  std::uint64_t version_clock = 0;  ///< bumped on every entry mutation

  static_assert(runtime::FlatMap<Entry>::slot_bytes() <= 104,
                "a vault pool slot must stay within 104 bytes");

  /// Arms `id` to fire once `expires_at_s` has passed. The +1 pairs with
  /// purge_expired()'s: every entry with expires_at_s <= now_s has deadline
  /// tick_of(expires)+1 <= tick_of(now)+1, so a sweep at `now_s` fires every
  /// expired session armed at its own deadline. A session expiring later in
  /// the swept tick fires early; purge's re-check keeps it and re-arms it at
  /// a deadline the wheel has already reached, which goes to `late` and is
  /// taken out by the first sweep at or past its exact expiry.
  void arm(std::uint64_t id, double expires_at_s) {
    const std::uint64_t deadline = tick_of(expires_at_s) + 1;
    if (deadline > wheel.now()) {
      wheel.arm(id, deadline);
      return;
    }
    late.emplace_back(expires_at_s, id);
  }
};

KeyVault::KeyVault(const VaultConfig& config) : config_(config) {
  if (config_.shards < 1) config_.shards = 1;
  config_.shards = round_up_pow2(config_.shards);
  if (config_.capacity < config_.shards) config_.capacity = config_.shards;
  per_shard_capacity_ = (config_.capacity + config_.shards - 1) / config_.shards;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->map.reserve(per_shard_capacity_);
    shards_.push_back(std::move(shard));
  }
}

KeyVault::~KeyVault() = default;

KeyVault::Shard& KeyVault::shard_for(std::uint64_t session_id) {
  return *shards_[(mix64(session_id) >> 32) & (shards_.size() - 1)];
}

const KeyVault::Shard& KeyVault::shard_for(std::uint64_t session_id) const {
  return *shards_[(mix64(session_id) >> 32) & (shards_.size() - 1)];
}

bool KeyVault::reap_if_expired(Shard& shard, std::uint32_t idx, double now_s) {
  if (now_s < shard.map.at(idx).expires_at_s) return false;
  shard.map.erase_index(idx);
  ttl_evictions_.fetch_add(1, std::memory_order_relaxed);
  resident_entries_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void KeyVault::evict_for_capacity(Shard& shard) {
  if (shard.map.size() < per_shard_capacity_) return;
  const std::uint32_t victim = shard.map.lru_tail();
  if (victim == runtime::FlatMap<Entry>::kNil) return;
  shard.map.erase_index(victim);
  lru_evictions_.fetch_add(1, std::memory_order_relaxed);
  resident_entries_.fetch_sub(1, std::memory_order_relaxed);
}

bool KeyVault::install(std::uint64_t session_id, std::span<const std::uint8_t> key,
                       double now_s) {
  if (key.size() != sizeof(SessionKey)) return false;
  Shard& shard = shard_for(session_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  std::uint32_t idx = shard.map.find_index(session_id);
  if (idx == runtime::FlatMap<Entry>::kNil) {
    evict_for_capacity(shard);
    idx = shard.map.find_or_insert(session_id).first;
    shard.map.at(idx).window.reconfigure(config_.replay_window_bits);
    resident_entries_.fetch_add(1, std::memory_order_relaxed);
  } else {
    shard.map.touch(idx);
  }
  Entry& entry = shard.map.at(idx);
  std::copy(key.begin(), key.end(), entry.key.begin());
  entry.epoch = 0;
  entry.expires_at_s = now_s + config_.ttl_s;
  entry.revoked = false;
  entry.version = ++shard.version_clock;
  entry.window.reset();
  shard.arm(session_id, entry.expires_at_s);
  installs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool KeyVault::install(std::uint64_t session_id, const BitVec& key, double now_s) {
  if (key.size() < 8 * sizeof(SessionKey)) return false;
  const std::vector<std::uint8_t> bytes = key.slice(0, 8 * sizeof(SessionKey)).to_bytes();
  return install(session_id, bytes, now_s);
}

std::optional<std::uint32_t> KeyVault::rotate(std::uint64_t session_id, double now_s) {
  Shard& shard = shard_for(session_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint32_t idx = shard.map.find_index(session_id);
  if (idx == runtime::FlatMap<Entry>::kNil) return std::nullopt;
  if (reap_if_expired(shard, idx, now_s)) return std::nullopt;
  Entry& entry = shard.map.at(idx);
  if (entry.revoked) return std::nullopt;
  entry.epoch += 1;
  entry.key = derive_rotated_key(entry.key, session_id, entry.epoch);
  entry.expires_at_s = now_s + config_.ttl_s;
  entry.version = ++shard.version_clock;
  entry.window.reset();
  shard.map.touch(idx);
  shard.arm(session_id, entry.expires_at_s);
  rotations_.fetch_add(1, std::memory_order_relaxed);
  return entry.epoch;
}

bool KeyVault::revoke(std::uint64_t session_id) {
  Shard& shard = shard_for(session_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint32_t idx = shard.map.find_index(session_id);
  if (idx == runtime::FlatMap<Entry>::kNil) return false;
  Entry& entry = shard.map.at(idx);
  entry.revoked = true;
  entry.version = ++shard.version_clock;
  revocations_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

AccessStatus KeyVault::authorize(const AccessRequest& req,
                                 std::span<const std::uint8_t> mac_input, double now_s,
                                 SessionKey* key_out,
                                 std::optional<crypto::HmacKey>* schedule_out) {
  Shard& shard = shard_for(req.session_id);
  std::unique_lock<std::mutex> lock(shard.mutex);
  for (int attempt = 0;; ++attempt) {
    // Pre-MAC checks, under the lock.
    std::uint32_t idx = shard.map.find_index(req.session_id);
    if (idx == runtime::FlatMap<Entry>::kNil) return AccessStatus::kUnknownSession;
    if (reap_if_expired(shard, idx, now_s)) return AccessStatus::kExpired;
    const Entry& entry = shard.map.at(idx);
    if (entry.revoked) return AccessStatus::kRevoked;
    if (req.epoch != entry.epoch) return AccessStatus::kStaleEpoch;

    // Optimistically, snapshot (key, version) and hash outside the lock, so
    // other requests for the shard proceed meanwhile. An unchanged version on
    // re-lock proves the entry (key, epoch, revocation, TTL deadline) is
    // byte-for-byte what we hashed against; any mutation since forces a
    // retry. Once the retries are spent the session is being mutated faster
    // than we can hash, and the same steps run under the lock, where nothing
    // can race.
    const bool locked = attempt == kMaxOptimisticRetries;
    const SessionKey snap_key = entry.key;
    const std::uint64_t snap_version = entry.version;
    if (locked) {
      locked_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    } else {
      lock.unlock();
    }
    const crypto::HmacKey schedule(snap_key);
    const bool mac_ok = crypto::digest_equal(schedule.mac(mac_input), req.mac);
    if (!locked) {
      optimistic_verifies_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
      idx = shard.map.find_index(req.session_id);
      if (idx == runtime::FlatMap<Entry>::kNil) return AccessStatus::kUnknownSession;
      if (shard.map.at(idx).version != snap_version) {
        version_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }

    // Commit. Only authenticated counters may advance the window (header
    // contract).
    Entry& live = shard.map.at(idx);
    if (!mac_ok) return AccessStatus::kBadMac;
    if (!live.window.check_and_update(req.counter)) return AccessStatus::kReplay;
    shard.map.touch(idx);
    if (key_out != nullptr) *key_out = live.key;
    if (schedule_out != nullptr) schedule_out->emplace(schedule);
    return AccessStatus::kGranted;
  }
}

std::size_t KeyVault::purge_expired(double now_s) {
  std::size_t purged = 0;
  std::vector<std::uint64_t> fired;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    fired.clear();
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.wheel.advance_to(tick_of(now_s) + 1, fired);  // +1: see Shard::arm
    std::size_t kept = 0;
    for (const auto& [expires_at_s, id] : shard.late) {
      if (now_s >= expires_at_s) {
        fired.push_back(id);
      } else {
        shard.late[kept++] = {expires_at_s, id};
      }
    }
    shard.late.resize(kept);
    for (const std::uint64_t id : fired) {
      const std::uint32_t idx = shard.map.find_index(id);
      if (idx == runtime::FlatMap<Entry>::kNil) continue;  // already gone
      const Entry& entry = shard.map.at(idx);
      if (now_s >= entry.expires_at_s) {
        shard.map.erase_index(idx);
        ++purged;
        resident_entries_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        // Fired early (a stale arm from a rotate, or an expiry later in
        // this tick): the entry is live — re-arm it at its current deadline
        // so it is not leaked.
        shard.arm(id, entry.expires_at_s);
      }
    }
  }
  ttl_evictions_.fetch_add(purged, std::memory_order_relaxed);
  purged_expired_.fetch_add(purged, std::memory_order_relaxed);
  return purged;
}

bool KeyVault::note_seen(std::uint64_t session_id, std::uint64_t counter) {
  Shard& shard = shard_for(session_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint32_t idx = shard.map.find_index(session_id);
  if (idx == runtime::FlatMap<Entry>::kNil) return false;
  Entry& entry = shard.map.at(idx);
  if (entry.revoked) return false;
  // The return value is irrelevant: the primary accepted the counter, so a
  // duplicate mark (a re-replicated retry) is simply already-seen.
  (void)entry.window.check_and_update(counter);
  return true;
}

std::vector<ExportedSession> KeyVault::export_sessions(
    const std::function<bool(std::uint64_t)>& pred) const {
  std::vector<ExportedSession> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    // Oldest-first: importing in this order re-creates the LRU list exactly.
    shard->map.for_each_lru_oldest_first([&](std::uint64_t id, const Entry& entry) {
      if (!pred(id)) return;
      ExportedSession exported;
      exported.session_id = id;
      exported.key = entry.key;
      exported.epoch = entry.epoch;
      exported.expires_at_s = entry.expires_at_s;
      exported.revoked = entry.revoked;
      exported.window = entry.window.snapshot();
      out.push_back(std::move(exported));
    });
  }
  return out;
}

std::size_t KeyVault::import_sessions(std::span<const ExportedSession> sessions) {
  std::size_t imported = 0;
  for (const ExportedSession& s : sessions) {
    Shard& shard = shard_for(s.session_id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::uint32_t idx = shard.map.find_index(s.session_id);
    if (idx == runtime::FlatMap<Entry>::kNil) {
      evict_for_capacity(shard);
      idx = shard.map.find_or_insert(s.session_id).first;
      shard.map.at(idx).window.reconfigure(config_.replay_window_bits);
      resident_entries_.fetch_add(1, std::memory_order_relaxed);
    } else {
      shard.map.touch(idx);
    }
    Entry& entry = shard.map.at(idx);
    entry.key = s.key;
    entry.epoch = s.epoch;
    entry.expires_at_s = s.expires_at_s;
    entry.revoked = s.revoked;
    entry.version = ++shard.version_clock;
    entry.window.restore(s.window);
    shard.arm(s.session_id, entry.expires_at_s);
    ++imported;
  }
  return imported;
}

std::optional<SessionKey> KeyVault::current_key(std::uint64_t session_id, double now_s) const {
  const Shard& shard = shard_for(session_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint32_t idx = shard.map.find_index(session_id);
  if (idx == runtime::FlatMap<Entry>::kNil) return std::nullopt;
  const Entry& entry = shard.map.at(idx);
  if (entry.revoked) return std::nullopt;
  if (now_s >= entry.expires_at_s) return std::nullopt;
  return entry.key;
}

std::optional<std::uint32_t> KeyVault::current_epoch(std::uint64_t session_id,
                                                     double now_s) const {
  const Shard& shard = shard_for(session_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint32_t idx = shard.map.find_index(session_id);
  if (idx == runtime::FlatMap<Entry>::kNil) return std::nullopt;
  const Entry& entry = shard.map.at(idx);
  if (entry.revoked) return std::nullopt;
  if (now_s >= entry.expires_at_s) return std::nullopt;
  return entry.epoch;
}

std::size_t KeyVault::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

VaultStats KeyVault::stats() const {
  VaultStats s;
  s.installs = installs_.load(std::memory_order_relaxed);
  s.rotations = rotations_.load(std::memory_order_relaxed);
  s.revocations = revocations_.load(std::memory_order_relaxed);
  s.lru_evictions = lru_evictions_.load(std::memory_order_relaxed);
  s.ttl_evictions = ttl_evictions_.load(std::memory_order_relaxed);
  s.purged_expired = purged_expired_.load(std::memory_order_relaxed);
  s.resident_entries = resident_entries_.load(std::memory_order_relaxed);
  s.optimistic_verifies = optimistic_verifies_.load(std::memory_order_relaxed);
  s.version_retries = version_retries_.load(std::memory_order_relaxed);
  s.locked_fallbacks = locked_fallbacks_.load(std::memory_order_relaxed);
  return s;
}

std::size_t KeyVault::memory_bytes() const {
  // Every resident entry's window was configured to the vault's width, so
  // each owns the same out-of-line block (none at <= 128 bits).
  const std::size_t window_heap = ReplayWindow::heap_bytes_for(config_.replay_window_bits);
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->map.memory_bytes() + shard->map.size() * window_heap +
             shard->wheel.memory_bytes() +
             shard->late.capacity() * sizeof(shard->late.front());
  }
  return total;
}

}  // namespace wavekey::server
