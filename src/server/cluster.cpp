#include "server/cluster.hpp"

#include <chrono>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "protocol/arq.hpp"
#include "protocol/wire.hpp"
#include "server/access_exchange.hpp"

namespace wavekey::server {

namespace {

using protocol::MessageType;
using protocol::WireError;
using protocol::WireReader;
using protocol::WireWriter;

constexpr std::size_t kCrcBytes = 4;             ///< frame_seal's trailer
constexpr std::uint32_t kRingVnodes = 64;        ///< PartitionMap vnodes per node
constexpr std::size_t kDedupCapacity = 1 << 15;  ///< idempotency entries per node
constexpr std::size_t kAuditShards = 1;          ///< per-node audit chain shards

}  // namespace

// --- wire envelopes ---------------------------------------------------------

Bytes ClusterRequest::serialize() const {
  Bytes out;
  out.reserve(1 + 8 + 8 + 4 + 4 + inner.size() + kCrcBytes);
  WireWriter w(&out);
  w.u8(static_cast<std::uint8_t>(MessageType::kClusterRequest));
  w.u64(request_id);
  w.u64(tenant_id);
  w.u32(attempt);
  w.blob(inner);
  return out;
}

ClusterRequest ClusterRequest::parse(std::span<const std::uint8_t> wire) {
  WireReader r(wire);
  if (r.u8() != static_cast<std::uint8_t>(MessageType::kClusterRequest))
    throw WireError("ClusterRequest: wrong type tag");
  ClusterRequest req;
  req.request_id = r.u64();
  req.tenant_id = r.u64();
  req.attempt = r.u32();
  req.inner = r.view_blob();
  r.expect_done();
  return req;
}

Bytes ClusterResponse::serialize() const {
  Bytes out;
  out.reserve(1 + 8 + 1 + 4 + grant_wire.size() + 8 + audit_hash.size() + kCrcBytes);
  WireWriter w(&out);
  w.u8(static_cast<std::uint8_t>(MessageType::kClusterResponse));
  w.u64(request_id);
  w.u8(static_cast<std::uint8_t>(status));
  w.blob(grant_wire);
  // Audit cross-link rides AFTER the grant blob so the status byte keeps
  // its historical wire offset (1 + 8).
  w.u64(audit_count);
  w.bytes(audit_hash);
  return out;
}

ClusterResponse ClusterResponse::parse(std::span<const std::uint8_t> wire) {
  WireReader r(wire);
  if (r.u8() != static_cast<std::uint8_t>(MessageType::kClusterResponse))
    throw WireError("ClusterResponse: wrong type tag");
  ClusterResponse resp;
  resp.request_id = r.u64();
  const std::uint8_t status = r.u8();
  if (status >= kAccessStatusCount) throw WireError("ClusterResponse: unknown status byte");
  resp.status = static_cast<AccessStatus>(status);
  const auto grant = r.view_blob();
  resp.audit_count = r.u64();
  const auto hash = r.view(resp.audit_hash.size());
  std::copy(hash.begin(), hash.end(), resp.audit_hash.begin());
  r.expect_done();
  resp.grant_wire.assign(grant.begin(), grant.end());
  return resp;
}

void frame_seal(Bytes& buf) {
  const std::uint32_t crc = protocol::crc32(buf);
  WireWriter w(&buf);
  w.u32(crc);
}

std::optional<std::span<const std::uint8_t>> unframe_view(std::span<const std::uint8_t> wire) {
  if (wire.size() < kCrcBytes) return std::nullopt;
  const std::span<const std::uint8_t> payload = wire.first(wire.size() - kCrcBytes);
  std::uint32_t carried = 0;
  for (std::size_t i = 0; i < kCrcBytes; ++i)
    carried |= static_cast<std::uint32_t>(wire[payload.size() + i]) << (8 * i);
  if (protocol::crc32(payload) != carried) return std::nullopt;
  return payload;
}

// --- cluster ----------------------------------------------------------------

namespace {

/// Cached response of an executed request: the idempotency record a retry of
/// the same request id is answered from instead of being re-executed.
struct DedupEntry {
  std::uint32_t partition = 0;
  AccessStatus status = AccessStatus::kMalformed;
  Bytes grant_wire;
  // The audit stamp recorded when the request first executed: a retry gets
  // the ORIGINAL chain head back, not the head at retry time — the audit
  // chain sees each request once, exactly like the vault does.
  std::uint64_t audit_count = 0;
  crypto::Digest256 audit_hash{};
};

using Clock = std::chrono::steady_clock;

}  // namespace

struct VaultCluster::Node {
  NodeState state = NodeState::kUp;
  std::unique_ptr<KeyVault> vault;
  std::unique_ptr<AuditLog> audit;  ///< hash-chained decision log (audit.hpp)
  // Idempotency cache, FIFO-bounded. Guarded by its own mutex so serving
  // threads on different nodes never contend.
  mutable std::mutex dedup_mutex;
  std::unordered_map<std::uint64_t, DedupEntry> dedup;
  std::deque<std::uint64_t> dedup_fifo;
};

struct VaultCluster::Impl {
  ClusterConfig config;
  Clock::time_point epoch = Clock::now();
  // Topology lock: shared for serving, unique for crash/drain/fail_over.
  mutable std::shared_mutex topology;
  PartitionMap map;
  std::vector<std::unique_ptr<Node>> nodes;
  mutable std::mutex stats_mutex;
  ClusterStats counters;

  AuditLog::Config audit_config() const {
    return AuditLog::Config{kAuditShards, config.audit_seal};
  }

  explicit Impl(const ClusterConfig& c)
      : config(c), map(c.partitions < 1 ? 1 : c.partitions, kRingVnodes) {
    if (config.nodes < 1) config.nodes = 1;
    std::vector<NodeId> ids;
    for (NodeId id = 0; id < config.nodes; ++id) {
      auto node = std::make_unique<Node>();
      node->vault = std::make_unique<KeyVault>(config.vault);
      node->audit = std::make_unique<AuditLog>(audit_config());
      nodes.push_back(std::move(node));
      ids.push_back(id);
    }
    map.rebuild(ids);
  }

  double now_s() const { return std::chrono::duration<double>(Clock::now() - epoch).count(); }

  bool up(NodeId id) const {
    return id != kNoNode && id < nodes.size() && nodes[id]->state == NodeState::kUp;
  }

  void bump(std::uint64_t ClusterStats::* field, std::uint64_t by = 1) {
    std::lock_guard<std::mutex> lock(stats_mutex);
    counters.*field += by;
  }

  /// Caches `entry` under `request_id` on `node`, FIFO-evicting past the
  /// capacity bound. No-op if the id is already cached (a re-replication).
  void cache_response(Node& node, std::uint64_t request_id, DedupEntry entry) {
    std::lock_guard<std::mutex> lock(node.dedup_mutex);
    if (!node.dedup.emplace(request_id, std::move(entry)).second) return;
    node.dedup_fifo.push_back(request_id);
    while (node.dedup_fifo.size() > kDedupCapacity) {
      node.dedup.erase(node.dedup_fifo.front());
      node.dedup_fifo.pop_front();
    }
  }

  /// Takes `node` down with its memory gone: fresh empty vault, fresh audit
  /// chain, empty idempotency cache. Caller holds the topology lock unique.
  void take_down(Node& node) {
    node.state = NodeState::kDown;
    node.vault = std::make_unique<KeyVault>(config.vault);
    node.audit = std::make_unique<AuditLog>(audit_config());
    std::lock_guard<std::mutex> lock(node.dedup_mutex);
    node.dedup.clear();
    node.dedup_fifo.clear();
  }

  std::optional<DedupEntry> cached_response(Node& node, std::uint64_t request_id) const {
    std::lock_guard<std::mutex> lock(node.dedup_mutex);
    auto it = node.dedup.find(request_id);
    if (it == node.dedup.end()) return std::nullopt;
    return it->second;
  }

  /// Ships partition `p` from `source` to `target`: session state (replay
  /// windows included) plus the partition's idempotency records. Caller
  /// holds the topology lock unique.
  void copy_partition(NodeId source, NodeId target, std::uint32_t p) {
    const std::uint32_t partitions = map.partitions();
    const auto pred = [&](std::uint64_t sid) { return partition_of(sid, partitions) == p; };
    const std::vector<ExportedSession> exported = nodes[source]->vault->export_sessions(pred);
    const std::size_t moved = nodes[target]->vault->import_sessions(exported);
    std::vector<std::pair<std::uint64_t, DedupEntry>> records;
    {
      std::lock_guard<std::mutex> lock(nodes[source]->dedup_mutex);
      for (const auto& [id, entry] : nodes[source]->dedup)
        if (entry.partition == p) records.emplace_back(id, entry);
    }
    for (auto& [id, entry] : records) cache_response(*nodes[target], id, std::move(entry));
    bump(&ClusterStats::sessions_migrated, moved);
  }

  /// Recomputes placement over `live` nodes and migrates every partition
  /// whose ownership changed. `readable(id)` says whether a node's memory
  /// can still be read (a draining node can, a crashed one cannot). Caller
  /// holds the topology lock unique.
  void rebuild_and_migrate(const std::vector<NodeId>& live,
                           const std::function<bool(NodeId)>& readable) {
    std::vector<PartitionOwners> old(map.partitions());
    for (std::uint32_t p = 0; p < map.partitions(); ++p) old[p] = map.owners(p);
    map.rebuild(live);
    for (std::uint32_t p = 0; p < map.partitions(); ++p) {
      const PartitionOwners& prev = old[p];
      const PartitionOwners& next = map.owners(p);
      if (prev.primary == next.primary && prev.replica == next.replica) continue;
      bump(&ClusterStats::partitions_moved);
      // Freshest readable copy: the old primary saw every write; the old
      // replica mirrors installs, accepted counters, and grant records.
      const NodeId source = readable(prev.primary)   ? prev.primary
                            : readable(prev.replica) ? prev.replica
                                                     : kNoNode;
      if (source == kNoNode) continue;  // both copies lost; sessions re-pair
      for (const NodeId target : {next.primary, next.replica}) {
        if (target == kNoNode || target == source) continue;
        // A surviving old owner already holds the partition's state.
        if ((target == prev.primary || target == prev.replica) && readable(target)) continue;
        copy_partition(source, target, p);
      }
    }
  }
};

VaultCluster::VaultCluster(const ClusterConfig& config) : impl_(new Impl(config)) {}

VaultCluster::~VaultCluster() = default;

double VaultCluster::now_s() const { return impl_->now_s(); }

bool VaultCluster::install(std::uint64_t session_id, std::span<const std::uint8_t> key) {
  std::shared_lock<std::shared_mutex> lock(impl_->topology);
  const PartitionOwners owners =
      impl_->map.owners(partition_of(session_id, impl_->map.partitions()));
  if (!impl_->up(owners.primary)) return false;
  const double now = impl_->now_s();
  if (!impl_->nodes[owners.primary]->vault->install(session_id, key, now)) return false;
  if (impl_->up(owners.replica))
    impl_->nodes[owners.replica]->vault->install(session_id, key, now);
  return true;
}

bool VaultCluster::revoke(std::uint64_t session_id) {
  std::shared_lock<std::shared_mutex> lock(impl_->topology);
  const PartitionOwners owners =
      impl_->map.owners(partition_of(session_id, impl_->map.partitions()));
  bool revoked = false;
  if (impl_->up(owners.primary)) revoked = impl_->nodes[owners.primary]->vault->revoke(session_id);
  if (impl_->up(owners.replica)) impl_->nodes[owners.replica]->vault->revoke(session_id);
  return revoked;
}

ClusterResponse VaultCluster::execute(const ClusterRequest& request) {
  ClusterResponse resp;
  resp.request_id = request.request_id;

  AccessExchange exchange(request.inner);
  if (!exchange.parsed()) {
    resp.status = AccessStatus::kMalformed;
    resp.grant_wire = exchange.grant_wire();
    return resp;
  }
  const AccessRequest& inner = exchange.request();

  std::shared_lock<std::shared_mutex> lock(impl_->topology);
  const std::uint32_t partition = partition_of(inner.session_id, impl_->map.partitions());
  const PartitionOwners owners = impl_->map.owners(partition);
  if (!impl_->up(owners.primary)) {
    impl_->bump(&ClusterStats::unavailable);
    resp.status = AccessStatus::kUnavailable;
    resp.grant_wire =
        make_access_grant(inner.session_id, inner.counter, resp.status, {}).serialize();
    return resp;
  }

  Node& primary = *impl_->nodes[owners.primary];
  // Idempotent retry: a request id the node has already answered returns the
  // recorded response — a granted request whose response was lost on the WAN
  // is never re-granted (and never misreported as a replay to its own owner).
  if (auto cached = impl_->cached_response(primary, request.request_id)) {
    impl_->bump(&ClusterStats::dedup_hits);
    resp.status = cached->status;
    resp.grant_wire = std::move(cached->grant_wire);
    resp.audit_count = cached->audit_count;
    resp.audit_hash = cached->audit_hash;
    return resp;
  }

  impl_->bump(&ClusterStats::executed);
  const double now = impl_->now_s();
  const AccessStatus status = exchange.authorize(*primary.vault, now);
  resp.status = status;
  resp.grant_wire = exchange.grant_wire();

  // Fold the decision into the serving node's audit chain and cross-link
  // the resulting head into the response.
  AuditRecord record;
  record.kind = AuditKind::kAccess;
  record.tenant_id = request.tenant_id;
  record.tag_uid = inner.session_id;
  record.counter = inner.counter;
  record.status = status;
  record.time_us = static_cast<std::uint64_t>(now * 1e6);
  const AuditHead audit_head = primary.audit->append(record);
  resp.audit_count = audit_head.count;
  resp.audit_hash = audit_head.hash;

  DedupEntry entry{partition, status, resp.grant_wire, audit_head.count, audit_head.hash};
  if (status == AccessStatus::kGranted) {
    impl_->bump(&ClusterStats::vault_grants);
    // Synchronous mirror to the replica: the accepted counter lands in its
    // replay window and the grant record in its idempotency cache *before*
    // the response leaves, so a crash of the primary at any later point can
    // never reopen this counter.
    if (impl_->up(owners.replica)) {
      Node& replica = *impl_->nodes[owners.replica];
      replica.vault->note_seen(inner.session_id, inner.counter);
      impl_->cache_response(replica, request.request_id, entry);
    }
  }
  impl_->cache_response(primary, request.request_id, std::move(entry));
  return resp;
}

void VaultCluster::crash(NodeId node) {
  std::unique_lock<std::shared_mutex> lock(impl_->topology);
  if (node >= impl_->nodes.size() || impl_->nodes[node]->state == NodeState::kDown) return;
  // Memory lost, including the audit chain (a restarted node cannot
  // reproduce a previously cross-linked head at the same count — that's how
  // gateways detect truncation). The partition map is deliberately left
  // stale — until fail_over() runs, this node's partitions answer
  // kUnavailable, which is exactly the window a real failure detector leaves.
  impl_->take_down(*impl_->nodes[node]);
  impl_->bump(&ClusterStats::crashes);
}

void VaultCluster::fail_over() {
  std::unique_lock<std::shared_mutex> lock(impl_->topology);
  std::vector<NodeId> live;
  for (NodeId id = 0; id < impl_->nodes.size(); ++id)
    if (impl_->nodes[id]->state == NodeState::kUp) live.push_back(id);
  impl_->rebuild_and_migrate(live, [&](NodeId id) { return impl_->up(id); });
  impl_->bump(&ClusterStats::failovers);
}

void VaultCluster::drain(NodeId node) {
  std::unique_lock<std::shared_mutex> lock(impl_->topology);
  if (node >= impl_->nodes.size() || impl_->nodes[node]->state == NodeState::kDown) return;
  std::vector<NodeId> live;
  for (NodeId id = 0; id < impl_->nodes.size(); ++id)
    if (id != node && impl_->nodes[id]->state == NodeState::kUp) live.push_back(id);
  // The draining node is excluded from the new placement but stays readable
  // as a migration source: its partitions hand off with full state, so the
  // drain is invisible to clients.
  impl_->rebuild_and_migrate(live, [&](NodeId id) {
    return id != kNoNode && id < impl_->nodes.size() &&
           impl_->nodes[id]->state == NodeState::kUp;
  });
  impl_->take_down(*impl_->nodes[node]);
  impl_->bump(&ClusterStats::drains);
}

NodeState VaultCluster::node_state(NodeId node) const {
  std::shared_lock<std::shared_mutex> lock(impl_->topology);
  return node < impl_->nodes.size() ? impl_->nodes[node]->state : NodeState::kDown;
}

const AuditLog* VaultCluster::audit_log(NodeId node) const {
  std::shared_lock<std::shared_mutex> lock(impl_->topology);
  return node < impl_->nodes.size() ? impl_->nodes[node]->audit.get() : nullptr;
}

std::uint32_t VaultCluster::nodes() const {
  return static_cast<std::uint32_t>(impl_->nodes.size());
}

std::uint32_t VaultCluster::partitions() const { return impl_->map.partitions(); }

PartitionOwners VaultCluster::owners_of(std::uint64_t session_id) const {
  std::shared_lock<std::shared_mutex> lock(impl_->topology);
  return impl_->map.owners(partition_of(session_id, impl_->map.partitions()));
}

std::uint64_t VaultCluster::map_version() const {
  std::shared_lock<std::shared_mutex> lock(impl_->topology);
  return impl_->map.version();
}

ClusterStats VaultCluster::stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  return impl_->counters;
}

}  // namespace wavekey::server
