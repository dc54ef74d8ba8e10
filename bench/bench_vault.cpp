// Million-session vault data-plane bench (DESIGN.md §13): authorize
// throughput, memory footprint and TTL purge rate of server::KeyVault across
// a sessions scale sweep.
//
// Per sessions point:
//   fill        — install every session (install rate, bytes per session);
//   authorize   — 1- and 4-thread throughput over pre-MACed request batches
//                 (disjoint session stripes per thread; requests are built
//                 OUTSIDE the timed region so the measurement is pure vault
//                 work, not client-side MAC generation); reported, not gated;
//   ledger      — closed-form rejection counts: byte-exact replays of
//                 granted requests, corrupted MACs, stale epochs after
//                 rotation, unknown ids, expired sessions — every class must
//                 land exactly, and the replay probes must yield zero
//                 accepted replays (double grants);
//   purge       — a short-TTL vault is filled and swept past expiry; the
//                 wheel must reclaim every session (purge rate reported).
//
// Exit code (the CI gate), each miss named on stderr: nonzero on any ledger
// mismatch, accepted replay, double grant, purge shortfall, authorize
// failure, or a FlatMap store above 320 bytes per session.
//
// Knob: WAVEKEY_BENCH_SCALE scales the largest sessions point (1e6 at 1.0)
// and the op counts.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "runtime/cpu.hpp"
#include "runtime/event_loop.hpp"
#include "server/access_protocol.hpp"
#include "server/key_vault.hpp"

using namespace wavekey;
using namespace wavekey::server;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic per-session key — the vault fill and the request builder
/// agree without storing a million keys.
SessionKey key_of(std::uint64_t id) {
  SessionKey key{};
  for (std::size_t w = 0; w < 4; ++w) {
    const std::uint64_t v = mix64(id * 4 + w + 0x5EED);
    std::memcpy(key.data() + w * 8, &v, 8);
  }
  return key;
}

std::array<std::uint8_t, kNonceBytes> nonce_from(std::uint64_t v) {
  std::array<std::uint8_t, kNonceBytes> nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i)
    nonce[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return nonce;
}

// --- pre-MACed request batches ---------------------------------------------

struct Probe {
  AccessRequest req;
  Bytes mac_input;
};

/// One disjoint session stripe per thread, each hit round-robin with
/// monotonically increasing counters — every probe is grantable exactly
/// once against freshly installed sessions.
std::vector<std::vector<Probe>> build_probes(std::size_t threads, std::size_t ops_per_thread,
                                             std::size_t touched) {
  std::vector<std::vector<Probe>> per_thread(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    const std::uint64_t lo = t * touched / threads;
    const std::uint64_t hi = (t + 1) * touched / threads;
    const std::uint64_t span = std::max<std::uint64_t>(hi - lo, 1);
    auto& probes = per_thread[t];
    probes.reserve(ops_per_thread);
    for (std::size_t i = 0; i < ops_per_thread; ++i) {
      const std::uint64_t id = lo + (i % span);
      const std::uint64_t counter = 1 + i / span;
      AccessRequest req =
          make_access_request(id, 0, counter, nonce_from(counter), {0xAC}, key_of(id));
      Bytes mac_input = req.mac_input();
      probes.push_back(Probe{std::move(req), std::move(mac_input)});
    }
  }
  return per_thread;
}

/// Timed multi-thread authorize run; every probe must grant.
double run_authorize(KeyVault& vault, std::size_t threads,
                     const std::vector<std::vector<Probe>>& per_thread,
                     std::uint64_t* failures_out) {
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t bad = 0;
      for (const Probe& p : per_thread[t])
        if (vault.authorize(p.req, p.mac_input, 1.0, nullptr) != AccessStatus::kGranted) ++bad;
      failures.fetch_add(bad);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const Clock::time_point t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  std::size_t total = 0;
  for (const auto& probes : per_thread) total += probes.size();
  *failures_out += failures.load();
  return static_cast<double>(total) / wall;
}

}  // namespace

int main() {
  const double scale = bench::scale();
  const std::size_t max_sessions =
      std::max<std::size_t>(1000, static_cast<std::size_t>(1e6 * scale));
  std::vector<std::size_t> points;
  for (std::size_t n : {std::size_t{1000}, std::size_t{10000}, std::size_t{100000},
                        std::size_t{1000000}})
    if (n < max_sessions) points.push_back(n);
  points.push_back(max_sessions);

  const std::size_t ops_per_thread = std::clamp<std::size_t>(
      static_cast<std::size_t>(20000 * scale), 2000, 200000);
  constexpr std::size_t kShards = 64;
  constexpr double kTtl = 300.0;
  constexpr std::size_t kWindowBits = 128;
  const std::vector<std::size_t> thread_counts = {1, 4};

  std::printf("{\n  \"bench\": \"vault\",\n  \"scale\": %.3f,\n  \"shards\": %zu,\n"
              "  \"ops_per_thread\": %zu,\n  \"hardware_threads\": %zu,\n"
              "  \"sha_ni_active\": %s,\n  \"points\": [\n",
              scale, kShards, ops_per_thread, runtime::usable_cpus(),
              runtime::cpu::sha_ni_active() ? "true" : "false");

  bench::Gate gate("bench_vault");
  bool first_point = true;
  for (const std::size_t sessions : points) {
    // Headroom so the fill never LRU-evicts: per-shard capacity must cover
    // the binomial tail of the hash distribution, which for small
    // sessions/shards ratios is far above 2x the mean — hence the flat
    // +128-per-shard slack on top of the 2x.
    const std::size_t capacity = sessions * 2 + 128 * kShards;
    VaultConfig vc;
    vc.shards = kShards;
    vc.capacity = capacity;
    vc.ttl_s = kTtl;
    vc.replay_window_bits = kWindowBits;
    KeyVault vault(vc);

    const Clock::time_point fill0 = Clock::now();
    for (std::uint64_t id = 0; id < sessions; ++id) vault.install(id, key_of(id), 1.0);
    const double fill_wall = std::chrono::duration<double>(Clock::now() - fill0).count();

    const double flatmap_bytes =
        static_cast<double>(vault.memory_bytes()) / static_cast<double>(sessions);
    gate.check(flatmap_bytes <= 320.0, "FlatMap store %.0f B/session > 320 at %zu sessions",
               flatmap_bytes, sessions);

    // Authorize throughput per thread count. Sessions are re-installed
    // before every run so each pre-built batch starts from fresh replay
    // windows (install resets epoch and window; counters restart at 1).
    const std::size_t max_threads =
        *std::max_element(thread_counts.begin(), thread_counts.end());
    const std::size_t touched = std::min(sessions, max_threads * ops_per_thread);
    std::uint64_t failures = 0;
    std::printf("%s    {\"sessions\": %zu, \"install_per_sec\": %.0f,\n"
                "     \"flatmap_bytes_per_session\": %.1f,\n     \"threads\": [\n",
                first_point ? "" : ",\n", sessions,
                static_cast<double>(sessions) / fill_wall, flatmap_bytes);
    first_point = false;

    bool first_tc = true;
    for (const std::size_t threads : thread_counts) {
      const auto probes = build_probes(threads, ops_per_thread, touched);
      for (std::uint64_t id = 0; id < touched; ++id) vault.install(id, key_of(id), 1.0);
      const double rate = run_authorize(vault, threads, probes, &failures);
      std::printf("%s      {\"threads\": %zu, \"flatmap_grants_per_sec\": %.0f}",
                  first_tc ? "" : ",\n", threads, rate);
      first_tc = false;
    }
    gate.check(failures == 0, "%llu authorize failures at %zu sessions",
               static_cast<unsigned long long>(failures), sessions);

    // Closed-form rejection ledger. Every class has an exact expected count;
    // anything else fails the bench.
    const std::size_t nprobe = std::min<std::size_t>(1000, touched / 2 + 1);
    std::uint64_t counts[kAccessStatusCount] = {};
    const auto probe = [&](const AccessRequest& req, double now) {
      const Bytes mac_input = req.mac_input();
      const AccessStatus st = vault.authorize(req, mac_input, now, nullptr);
      counts[static_cast<std::size_t>(st)] += 1;
    };
    // Byte-exact replays: re-install (fresh windows), grant each probe
    // once, then submit the identical bytes again — every resubmission must
    // come back kReplay, and a kGranted here is an accepted replay (double
    // grant), the one number that must be zero.
    for (std::uint64_t id = 0; id < touched; ++id) vault.install(id, key_of(id), 1.0);
    const auto replay_set = build_probes(1, nprobe, std::max<std::size_t>(touched / 2, 1));
    std::uint64_t first_pass_misses = 0;
    for (const Probe& p : replay_set[0])
      if (vault.authorize(p.req, p.mac_input, 1.0, nullptr) != AccessStatus::kGranted)
        ++first_pass_misses;
    std::uint64_t replay_double_grants = 0;
    for (const Probe& p : replay_set[0]) {
      const AccessStatus st = vault.authorize(p.req, p.mac_input, 1.0, nullptr);
      counts[static_cast<std::size_t>(st)] += 1;
      if (st == AccessStatus::kGranted) ++replay_double_grants;
    }
    // Corrupted MACs on fresh counters.
    for (std::size_t i = 0; i < nprobe; ++i) {
      const std::uint64_t id = i % std::max<std::size_t>(touched, 1);
      AccessRequest req = make_access_request(id, 0, 1000000 + i, nonce_from(i), {0xAC},
                                              key_of(id));
      req.mac[0] ^= 0x01;
      probe(req, 1.0);
    }
    // Stale epochs: rotate, then present epoch-0 requests.
    std::uint64_t rotated = 0;
    for (std::size_t i = 0; i < nprobe; ++i) {
      const std::uint64_t id = i % std::max<std::size_t>(touched, 1);
      if (rotated < nprobe && vault.rotate(id, 1.0).has_value()) ++rotated;
      probe(make_access_request(id, 0, 2000000 + i, nonce_from(i), {0xAC}, key_of(id)), 1.0);
    }
    // Unknown sessions: ids beyond every installed range.
    for (std::size_t i = 0; i < nprobe; ++i)
      probe(make_access_request(sessions + 1000000 + i, 0, 1, nonce_from(i), {0xAC},
                                key_of(sessions + 1000000 + i)),
            1.0);
    // Expired sessions: probe past the TTL horizon (status order puts the
    // TTL check before the MAC, so the key does not matter).
    for (std::size_t i = 0; i < nprobe; ++i) {
      const std::uint64_t id = i % std::max<std::size_t>(touched, 1);
      probe(make_access_request(id, 1, 3000000 + i, nonce_from(i), {0xAC}, key_of(id)),
            1.0 + kTtl + 1.0);
    }
    const std::uint64_t replay_rejected = counts[static_cast<std::size_t>(AccessStatus::kReplay)];
    const std::uint64_t bad_mac = counts[static_cast<std::size_t>(AccessStatus::kBadMac)];
    const std::uint64_t stale = counts[static_cast<std::size_t>(AccessStatus::kStaleEpoch)];
    const std::uint64_t unknown =
        counts[static_cast<std::size_t>(AccessStatus::kUnknownSession)];
    const std::uint64_t expired = counts[static_cast<std::size_t>(AccessStatus::kExpired)];
    const bool ledger_ok = replay_rejected == nprobe && replay_double_grants == 0 &&
                           first_pass_misses == 0 && bad_mac == nprobe && stale == nprobe &&
                           unknown == nprobe && expired == nprobe && failures == 0;
    gate.check(replay_double_grants == 0, "%llu accepted replays at %zu sessions",
               static_cast<unsigned long long>(replay_double_grants), sessions);
    gate.check(ledger_ok, "rejection ledger mismatch at %zu sessions", sessions);

    // TTL purge: a short-TTL vault swept past expiry must reclaim every
    // session through the wheel (none of them is ever touched again).
    VaultConfig pc = vc;
    pc.ttl_s = 1.0;
    const std::size_t purge_sessions = std::min<std::size_t>(sessions, 100000);
    pc.capacity = purge_sessions * 2 + 128 * kShards;
    KeyVault purge_vault(pc);
    for (std::uint64_t id = 0; id < purge_sessions; ++id)
      purge_vault.install(id, key_of(id), 0.0);
    const Clock::time_point purge0 = Clock::now();
    const std::size_t purged = purge_vault.purge_expired(2.0);
    const double purge_wall = std::chrono::duration<double>(Clock::now() - purge0).count();
    gate.check(purged == purge_sessions, "wheel purge reclaimed %zu/%zu at %zu sessions", purged,
               purge_sessions, sessions);

    std::printf("\n     ],\n     \"ledger\": {\"probes_per_class\": %zu, "
                "\"replay_rejected\": %llu, \"accepted_replays\": %llu, \"bad_mac\": %llu, "
                "\"stale_epoch\": %llu, \"unknown\": %llu, \"expired\": %llu, "
                "\"authorize_failures\": %llu, \"ledger_ok\": %s},\n"
                "     \"purge\": {\"installed\": %zu, \"purged\": %zu, "
                "\"purge_per_sec\": %.0f}}",
                nprobe, static_cast<unsigned long long>(replay_rejected),
                static_cast<unsigned long long>(replay_double_grants),
                static_cast<unsigned long long>(bad_mac),
                static_cast<unsigned long long>(stale),
                static_cast<unsigned long long>(unknown),
                static_cast<unsigned long long>(expired),
                static_cast<unsigned long long>(failures), ledger_ok ? "true" : "false",
                purge_sessions, purged,
                static_cast<double>(purged) / std::max(purge_wall, 1e-9));
  }

  std::printf("\n  ]\n}\n");
  return gate.exit_code();
}
