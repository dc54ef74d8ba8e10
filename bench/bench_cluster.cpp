// Distributed-backend chaos soak (DESIGN.md §10): reader gateways driving a
// partitioned VaultCluster over a lossy WAN while the harness injects a hard
// node crash (memory lost, failover delayed) and a graceful drain
// mid-traffic. The point of the bench is not throughput — it is that the
// rejection ledger stays EXACT under chaos:
//
//  * deterministic probes run on a loss-free channel, so every rejection
//    class has a closed-form expected count: byte-identical replays of
//    granted requests -> kReplay (including replays of pre-crash grants
//    against the promoted replica — the crash must not reopen the replay
//    window), tampered MACs -> kBadMac, garbage frames -> kMalformed,
//    requests into the crash-to-failover window -> kUnavailable, and a
//    blackhole gateway (100% loss) -> kRetryExhausted;
//  * chaos traffic (>= 5% loss + corruption + duplication + jitter) has no
//    per-request closed form, but hard invariants: every submitted request
//    resolves with a typed status (no hangs, no losses), retries never
//    produce kReplay (the idempotency cache absorbs them), kUnavailable
//    never appears outside the crash window (a drain is gap-free), and the
//    well-formed grant rate after retries stays >= 95%;
//  * cluster-side accounting bounds double-grants to zero: unique vault
//    grants never exceed distinct well-formed requests, and every grant the
//    gateways did not observe is covered by a typed unresolved-response
//    outcome.
//
// Exit code (the CI gate) asserts all of the above, plus that every
// deterministic probe class and the crash window actually fired and the
// drain migrated sessions; each miss is named on stderr. The chaos WAN
// loses 6% of frames each way.
//
// Knob: WAVEKEY_BENCH_SCALE scales sessions (default 1.0).

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <vector>

#include "bench/harness.hpp"
#include "crypto/drbg.hpp"
#include "server/cluster.hpp"
#include "server/gateway.hpp"

using namespace wavekey;
using namespace wavekey::server;

namespace {

constexpr double kChaosLoss = 0.06;  ///< WAN loss rate of the chaos phases, each way

std::array<std::uint8_t, kNonceBytes> nonce_from(std::uint64_t v) {
  std::array<std::uint8_t, kNonceBytes> nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i)
    nonce[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return nonce;
}

/// One submitted request and its observed resolution. Slots are preallocated
/// per phase so gateway callbacks can write them without reallocation races.
struct Item {
  std::uint64_t sid = 0;
  Bytes wire;
  AccessStatus status = AccessStatus::kRetryExhausted;
  bool resolved = false;
};

/// Thread-safe per-phase outcome tally.
struct Tally {
  std::mutex mutex;
  std::uint64_t submitted = 0;
  std::uint64_t resolved = 0;
  std::uint64_t outcomes[kAccessStatusCount] = {};

  ReaderGateway::Callback recorder(Item* slot) {
    return [this, slot](const GatewayResult& result) {
      std::lock_guard<std::mutex> lock(mutex);
      resolved += 1;
      outcomes[static_cast<std::size_t>(result.status)] += 1;
      if (slot) {
        slot->status = result.status;
        slot->resolved = true;
      }
    };
  }

  std::uint64_t count(AccessStatus status) {
    std::lock_guard<std::mutex> lock(mutex);
    return outcomes[static_cast<std::size_t>(status)];
  }
  std::uint64_t sum() {
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t total = 0;
    for (std::uint64_t c : outcomes) total += c;
    return total;
  }
  bool all_resolved() {
    std::lock_guard<std::mutex> lock(mutex);
    std::uint64_t total = 0;
    for (std::uint64_t c : outcomes) total += c;
    return resolved == submitted && total == resolved;
  }
};

struct Fleet {
  VaultCluster& cluster;
  std::vector<SessionKey>& keys;
  std::vector<std::uint64_t>& next_counter;

  Bytes fresh_wire(std::uint64_t sid) {
    const std::uint64_t c = next_counter[sid]++;
    return make_access_request(sid, 0, c, nonce_from(c), {0xD0, static_cast<std::uint8_t>(sid)},
                               keys[sid])
        .serialize();
  }

  /// Submits `items` (pre-filled wires) through `gw`, one callback per slot.
  void submit_all(ReaderGateway& gw, std::vector<Item>& items, Tally& tally) {
    for (Item& item : items) {
      {
        std::lock_guard<std::mutex> lock(tally.mutex);
        tally.submitted += 1;
      }
      gw.submit(item.sid, item.wire, tally.recorder(&item));
    }
  }
};

GatewayConfig chaos_gateway_config(std::uint32_t id, double loss, std::size_t queue) {
  GatewayConfig cfg;
  cfg.gateway_id = id;
  cfg.workers = 4;
  cfg.queue_capacity = queue;
  // The retry budget (~14 ms of backoff across 8 attempts) is sized to
  // outlast the crash->failover window the harness leaves open, so traffic
  // in flight across the crash overwhelmingly rides through to a grant.
  cfg.max_attempts = 8;
  cfg.attempt_timeout_s = 0.050;
  cfg.backoff_base_s = 0.0002;
  cfg.backoff_max_s = 0.004;
  cfg.channel.seed = 0xC7A05 + id;
  protocol::LinkFaultConfig wan;
  wan.loss = loss;
  wan.corrupt = 0.02;
  wan.duplicate = 0.03;
  wan.reorder = 0.02;
  wan.jitter = protocol::JitterDistribution::kExponential;
  wan.jitter_s = 0.002;
  cfg.channel.mobile_to_server = wan;
  cfg.channel.server_to_mobile = wan;
  return cfg;
}

GatewayConfig clean_gateway_config(std::uint32_t id, std::uint32_t attempts) {
  GatewayConfig cfg;
  cfg.gateway_id = id;
  cfg.workers = 2;
  cfg.queue_capacity = 256;
  cfg.max_attempts = attempts;
  cfg.channel.seed = 0xFACE + id;  // all fault rates zero: deterministic
  return cfg;
}

const char* ok(bool b) { return b ? "true" : "false"; }

}  // namespace

int main() {
  const std::uint64_t sessions =
      std::max<std::uint64_t>(24, static_cast<std::uint64_t>(64 * bench::scale()));
  const int healthy_rounds = 3;

  ClusterConfig cluster_config;
  cluster_config.nodes = 4;
  cluster_config.partitions = 64;
  cluster_config.vault.shards = 8;
  cluster_config.vault.capacity = sessions * 4 + 256;
  cluster_config.vault.ttl_s = 3600.0;
  cluster_config.vault.replay_window_bits = 1024;  // chaos reorders freely
  VaultCluster cluster(cluster_config);

  crypto::Drbg rng(0xD15C0ull);
  std::vector<SessionKey> keys(sessions);
  std::vector<std::uint64_t> next_counter(sessions, 1);
  for (std::uint64_t sid = 0; sid < sessions; ++sid) {
    rng.random_bytes(keys[sid]);
    if (!cluster.install(sid, keys[sid])) {
      std::printf("{\"bench\": \"cluster\", \"error\": \"install failed\"}\n");
      return 1;
    }
  }
  Fleet fleet{cluster, keys, next_counter};

  // ---- phase 1: healthy soak over the lossy WAN ---------------------------
  Tally healthy;
  std::vector<Item> healthy_items(sessions * healthy_rounds);
  for (std::size_t i = 0; i < healthy_items.size(); ++i) {
    healthy_items[i].sid = i % sessions;
    healthy_items[i].wire = fleet.fresh_wire(healthy_items[i].sid);
  }
  {
    ReaderGateway gw(cluster, chaos_gateway_config(1, kChaosLoss, healthy_items.size() + 16));
    fleet.submit_all(gw, healthy_items, healthy);
    gw.finish();
  }

  // ---- phase 2: deterministic probes (loss-free channel) ------------------
  // Byte-identical replays of *granted* requests under fresh request ids:
  // the dedup cache does not apply (new id), the replay window must.
  Tally probes;
  std::vector<Item> replay_items;
  for (const Item& item : healthy_items)
    if (item.status == AccessStatus::kGranted && replay_items.size() < 32)
      replay_items.push_back(Item{item.sid, item.wire, AccessStatus::kRetryExhausted, false});
  std::vector<Item> bad_mac_items, malformed_items;
  for (int i = 0; i < 24; ++i) {
    const std::uint64_t sid = static_cast<std::uint64_t>(i) % sessions;
    Item bad;
    bad.sid = sid;
    bad.wire = fleet.fresh_wire(sid);
    bad.wire[bad.wire.size() - 1] ^= 0x40;  // last MAC byte: HMAC must fail
    bad_mac_items.push_back(std::move(bad));
    Item garbage;
    garbage.sid = sid;
    garbage.wire = {static_cast<std::uint8_t>(i), 0xFF, 0x00, 0x42};  // not a request
    malformed_items.push_back(std::move(garbage));
  }
  {
    ReaderGateway gw(cluster, clean_gateway_config(2, 4));
    fleet.submit_all(gw, replay_items, probes);
    fleet.submit_all(gw, bad_mac_items, probes);
    fleet.submit_all(gw, malformed_items, probes);
    gw.finish();
  }

  // ---- phase 3: hard crash mid-traffic, probe the window, fail over -------
  const NodeId victim = 0;
  std::vector<std::uint64_t> victim_sids;
  for (std::uint64_t sid = 0; sid < sessions && victim_sids.size() < 16; ++sid)
    if (cluster.owners_of(sid).primary == victim) victim_sids.push_back(sid);

  Tally crash_phase;
  std::vector<Item> crash_items(sessions * 2);
  for (std::size_t i = 0; i < crash_items.size(); ++i) {
    crash_items[i].sid = i % sessions;
    crash_items[i].wire = fleet.fresh_wire(crash_items[i].sid);
  }
  Tally window;
  std::vector<Item> window_items;
  for (const std::uint64_t sid : victim_sids)
    window_items.push_back(Item{sid, fleet.fresh_wire(sid), AccessStatus::kRetryExhausted, false});

  {
    ReaderGateway gw(cluster, chaos_gateway_config(3, kChaosLoss, crash_items.size() + 16));
    // First wave in flight...
    for (std::size_t i = 0; i < sessions; ++i) {
      {
        std::lock_guard<std::mutex> lock(crash_phase.mutex);
        crash_phase.submitted += 1;
      }
      gw.submit(crash_items[i].sid, crash_items[i].wire, crash_phase.recorder(&crash_items[i]));
    }
    // ...when the node dies. Partitions are NOT reassigned yet: requests for
    // the victim's partitions get typed kUnavailable until fail_over().
    cluster.crash(victim);
    {
      // Single-attempt probes on a clean channel: each one deterministically
      // observes the unavailability window. finish() bounds the window — the
      // failover below runs only after every probe resolved.
      ReaderGateway probe(cluster, clean_gateway_config(4, 1));
      fleet.submit_all(probe, window_items, window);
      probe.finish();
    }
    cluster.fail_over();
    // Second wave lands on the promoted replicas.
    for (std::size_t i = sessions; i < crash_items.size(); ++i) {
      {
        std::lock_guard<std::mutex> lock(crash_phase.mutex);
        crash_phase.submitted += 1;
      }
      gw.submit(crash_items[i].sid, crash_items[i].wire, crash_phase.recorder(&crash_items[i]));
    }
    gw.finish();
  }

  // ---- phase 4: the crash must not have reopened the replay surface -------
  // Replays of PRE-CRASH grants whose primary was the dead node: the
  // promoted replica inherited the accepted counters (synchronous mirror +
  // handoff), so every one must come back kReplay.
  Tally reopened;
  std::vector<Item> reopened_items;
  for (const Item& item : healthy_items) {
    if (item.status != AccessStatus::kGranted) continue;
    bool was_victims = false;
    for (const std::uint64_t sid : victim_sids) was_victims |= sid == item.sid;
    if (was_victims && reopened_items.size() < 16)
      reopened_items.push_back(Item{item.sid, item.wire, AccessStatus::kRetryExhausted, false});
  }
  {
    ReaderGateway gw(cluster, clean_gateway_config(5, 4));
    fleet.submit_all(gw, reopened_items, reopened);
    gw.finish();
  }

  // ---- phase 5: graceful drain mid-traffic --------------------------------
  const NodeId drained = 1;
  Tally drain_phase;
  std::vector<Item> drain_items(sessions * 2);
  for (std::size_t i = 0; i < drain_items.size(); ++i) {
    drain_items[i].sid = i % sessions;
    drain_items[i].wire = fleet.fresh_wire(drain_items[i].sid);
  }
  {
    ReaderGateway gw(cluster, chaos_gateway_config(6, kChaosLoss, drain_items.size() + 16));
    for (std::size_t i = 0; i < sessions; ++i) {
      {
        std::lock_guard<std::mutex> lock(drain_phase.mutex);
        drain_phase.submitted += 1;
      }
      gw.submit(drain_items[i].sid, drain_items[i].wire, drain_phase.recorder(&drain_items[i]));
    }
    // Handoff is atomic under the topology lock: state (replay windows and
    // idempotency records included) moves before the node goes down, so the
    // drain is invisible — the gate below asserts zero kUnavailable here.
    cluster.drain(drained);
    for (std::size_t i = sessions; i < drain_items.size(); ++i) {
      {
        std::lock_guard<std::mutex> lock(drain_phase.mutex);
        drain_phase.submitted += 1;
      }
      gw.submit(drain_items[i].sid, drain_items[i].wire, drain_phase.recorder(&drain_items[i]));
    }
    gw.finish();
  }

  // ---- phase 6: blackhole (100% loss both ways) ---------------------------
  Tally blackhole;
  std::vector<Item> blackhole_items;
  for (int i = 0; i < 24; ++i) {
    const std::uint64_t sid = static_cast<std::uint64_t>(i) % sessions;
    blackhole_items.push_back(Item{sid, fleet.fresh_wire(sid), AccessStatus::kRetryExhausted, false});
  }
  {
    GatewayConfig cfg = chaos_gateway_config(7, 0.0, 256);
    cfg.max_attempts = 2;
    cfg.backoff_base_s = 0.0;
    cfg.channel.mobile_to_server.loss = 1.0;
    cfg.channel.server_to_mobile.loss = 1.0;
    ReaderGateway gw(cluster, cfg);
    fleet.submit_all(gw, blackhole_items, blackhole);
    gw.finish();
  }

  // ---- ledger -------------------------------------------------------------
  const ClusterStats cs = cluster.stats();

  const std::uint64_t accepted_replays =
      probes.count(AccessStatus::kGranted) + reopened.count(AccessStatus::kGranted);
  const std::uint64_t wellformed_submitted =
      healthy.submitted + crash_phase.submitted + drain_phase.submitted;
  const std::uint64_t wellformed_granted = healthy.count(AccessStatus::kGranted) +
                                           crash_phase.count(AccessStatus::kGranted) +
                                           drain_phase.count(AccessStatus::kGranted);
  const std::uint64_t unresolved_response = crash_phase.count(AccessStatus::kUnavailable) +
                                            crash_phase.count(AccessStatus::kRetryExhausted) +
                                            healthy.count(AccessStatus::kRetryExhausted) +
                                            drain_phase.count(AccessStatus::kRetryExhausted);
  // Every vault grant is either observed by a gateway or covered by a typed
  // lost-response outcome; more grants than distinct well-formed requests
  // would mean a double-grant.
  const std::uint64_t double_grants =
      cs.vault_grants > wellformed_submitted ? cs.vault_grants - wellformed_submitted : 0;
  const bool grants_accounted = cs.vault_grants >= wellformed_granted &&
                                cs.vault_grants <= wellformed_granted + unresolved_response;

  const bool resolved_ok = healthy.all_resolved() && probes.all_resolved() &&
                           crash_phase.all_resolved() && window.all_resolved() &&
                           reopened.all_resolved() && drain_phase.all_resolved() &&
                           blackhole.all_resolved();
  const std::uint64_t unresolved_in_flight =
      (healthy.submitted - healthy.resolved) + (probes.submitted - probes.resolved) +
      (crash_phase.submitted - crash_phase.resolved) + (window.submitted - window.resolved) +
      (reopened.submitted - reopened.resolved) + (drain_phase.submitted - drain_phase.resolved) +
      (blackhole.submitted - blackhole.resolved);

  const bool probe_ledger_ok =
      probes.count(AccessStatus::kReplay) == replay_items.size() &&
      probes.count(AccessStatus::kBadMac) == bad_mac_items.size() &&
      probes.count(AccessStatus::kMalformed) == malformed_items.size() &&
      probes.sum() == replay_items.size() + bad_mac_items.size() + malformed_items.size();
  const bool window_ledger_ok =
      window.count(AccessStatus::kUnavailable) == window_items.size() &&
      window.sum() == window_items.size();
  const bool reopened_ledger_ok =
      reopened.count(AccessStatus::kReplay) == reopened_items.size() &&
      reopened.sum() == reopened_items.size();
  const bool blackhole_ledger_ok =
      blackhole.count(AccessStatus::kRetryExhausted) == blackhole_items.size() &&
      blackhole.sum() == blackhole_items.size();
  // Chaos traffic never sees kReplay (dedup absorbs retries), and
  // kUnavailable exists only inside the crash->failover window.
  const bool chaos_typed_ok =
      healthy.count(AccessStatus::kReplay) == 0 && crash_phase.count(AccessStatus::kReplay) == 0 &&
      drain_phase.count(AccessStatus::kReplay) == 0 &&
      healthy.count(AccessStatus::kUnavailable) == 0 &&
      drain_phase.count(AccessStatus::kUnavailable) == 0;
  const double wellformed_success =
      wellformed_submitted == 0
          ? 0.0
          : static_cast<double>(wellformed_granted) / static_cast<double>(wellformed_submitted);
  const bool success_ok = wellformed_success >= 0.95;
  const bool chaos_ran = cs.crashes == 1 && cs.drains == 1 && cs.failovers == 1 &&
                         window_items.size() > 0 && reopened_items.size() > 0;

  std::printf("{\n  \"bench\": \"cluster\",\n");
  std::printf("  \"sessions\": %llu,\n  \"nodes\": %u,\n  \"partitions\": %u,\n",
              static_cast<unsigned long long>(sessions), cluster.nodes(), cluster.partitions());
  std::printf("  \"wan_loss\": %.3f,\n", kChaosLoss);
  std::printf("  \"phases\": {\n");
  const auto phase_json = [](const char* name, Tally& t, bool last = false) {
    std::printf("    \"%s\": {\"submitted\": %llu, \"resolved\": %llu, \"granted\": %llu, "
                "\"replay\": %llu, \"bad_mac\": %llu, \"malformed\": %llu, "
                "\"unavailable\": %llu, \"retry_exhausted\": %llu}%s\n",
                name, static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(t.resolved),
                static_cast<unsigned long long>(t.count(AccessStatus::kGranted)),
                static_cast<unsigned long long>(t.count(AccessStatus::kReplay)),
                static_cast<unsigned long long>(t.count(AccessStatus::kBadMac)),
                static_cast<unsigned long long>(t.count(AccessStatus::kMalformed)),
                static_cast<unsigned long long>(t.count(AccessStatus::kUnavailable)),
                static_cast<unsigned long long>(t.count(AccessStatus::kRetryExhausted)),
                last ? "" : ",");
  };
  phase_json("healthy", healthy);
  phase_json("probes", probes);
  phase_json("crash", crash_phase);
  phase_json("crash_window", window);
  phase_json("post_failover_replay", reopened);
  phase_json("drain", drain_phase);
  phase_json("blackhole", blackhole, true);
  std::printf("  },\n");
  std::printf("  \"cluster\": {\"executed\": %llu, \"vault_grants\": %llu, \"dedup_hits\": %llu, "
              "\"unavailable\": %llu, \"crashes\": %llu, \"drains\": %llu, \"failovers\": %llu, "
              "\"partitions_moved\": %llu, \"sessions_migrated\": %llu},\n",
              static_cast<unsigned long long>(cs.executed),
              static_cast<unsigned long long>(cs.vault_grants),
              static_cast<unsigned long long>(cs.dedup_hits),
              static_cast<unsigned long long>(cs.unavailable),
              static_cast<unsigned long long>(cs.crashes),
              static_cast<unsigned long long>(cs.drains),
              static_cast<unsigned long long>(cs.failovers),
              static_cast<unsigned long long>(cs.partitions_moved),
              static_cast<unsigned long long>(cs.sessions_migrated));
  std::printf("  \"accepted_replays\": %llu,\n  \"double_grants\": %llu,\n"
              "  \"unresolved_in_flight\": %llu,\n  \"wellformed_success\": %.4f,\n",
              static_cast<unsigned long long>(accepted_replays),
              static_cast<unsigned long long>(double_grants),
              static_cast<unsigned long long>(unresolved_in_flight), wellformed_success);
  std::printf("  \"probe_ledger_ok\": %s,\n  \"window_ledger_ok\": %s,\n"
              "  \"reopened_ledger_ok\": %s,\n  \"blackhole_ledger_ok\": %s,\n"
              "  \"chaos_typed_ok\": %s,\n  \"grants_accounted\": %s,\n"
              "  \"chaos_ran\": %s,\n  \"success_ok\": %s,\n  \"resolved_ok\": %s\n}\n",
              ok(probe_ledger_ok), ok(window_ledger_ok), ok(reopened_ledger_ok),
              ok(blackhole_ledger_ok), ok(chaos_typed_ok), ok(grants_accounted), ok(chaos_ran),
              ok(success_ok), ok(resolved_ok));

  bench::Gate gate("bench_cluster");
  gate.check(accepted_replays == 0, "cluster accepted %llu replays",
             static_cast<unsigned long long>(accepted_replays));
  gate.check(double_grants == 0, "cluster double-granted %llu requests",
             static_cast<unsigned long long>(double_grants));
  gate.check(unresolved_in_flight == 0, "%llu in-flight requests never resolved",
             static_cast<unsigned long long>(unresolved_in_flight));
  const std::pair<const char*, bool> flags[] = {
      {"probe_ledger_ok", probe_ledger_ok},       {"window_ledger_ok", window_ledger_ok},
      {"reopened_ledger_ok", reopened_ledger_ok}, {"blackhole_ledger_ok", blackhole_ledger_ok},
      {"chaos_typed_ok", chaos_typed_ok},         {"grants_accounted", grants_accounted},
      {"chaos_ran", chaos_ran},                   {"success_ok", success_ok},
      {"resolved_ok", resolved_ok}};
  for (const auto& [name, value] : flags) gate.check(value, "%s", name);
  // An exact ledger over zero probes proves nothing: every deterministic
  // class must actually have fired.
  const std::pair<const char*, std::uint64_t> fired[] = {
      {"replay probes", probes.count(AccessStatus::kReplay)},
      {"bad-MAC probes", probes.count(AccessStatus::kBadMac)},
      {"malformed probes", probes.count(AccessStatus::kMalformed)},
      {"crash-window kUnavailable", window.count(AccessStatus::kUnavailable)},
      {"post-failover replays", reopened.count(AccessStatus::kReplay)},
      {"blackhole kRetryExhausted", blackhole.count(AccessStatus::kRetryExhausted)},
      {"drain handoff sessions_migrated", cs.sessions_migrated}};
  for (const auto& [name, count] : fired) gate.check(count > 0, "%s never fired", name);
  return gate.exit_code();
}
