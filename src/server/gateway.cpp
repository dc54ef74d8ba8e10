#include "server/gateway.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "runtime/event_loop.hpp"
#include "runtime/task.hpp"

namespace wavekey::server {

namespace {

using protocol::Delivery;
using protocol::FaultyChannel;
using protocol::FaultyChannelConfig;
using protocol::InFlightMessage;
using protocol::MessageType;
using protocol::WireError;

constexpr double kBaseLatencyS = 0.002;  ///< fault-free one-way WAN latency

struct Job {
  std::uint64_t request_id = 0;
  std::uint64_t tenant_id = 0;
  Bytes inner;
  ReaderGateway::Callback callback;
};

}  // namespace

struct ReaderGateway::Impl {
  VaultCluster& cluster;
  GatewayConfig config;
  std::atomic<std::uint64_t> next_seq{0};
  // Requests admitted but not yet resolved, at most queue_capacity.
  runtime::AdmissionWindow window;
  mutable std::mutex stats_mutex;
  GatewayStats counters;
  // Last member: its destructor (close + drain + join) runs first, while the
  // rest of Impl is still alive for in-flight request coroutines.
  runtime::EventLoop loop;

  Impl(VaultCluster& c, const GatewayConfig& cfg)
      : cluster(c),
        config(cfg),
        window(cfg.queue_capacity),
        loop(cfg.workers < 1 ? 1 : cfg.workers) {
    if (config.max_attempts < 1) config.max_attempts = 1;
  }

  /// Seals a serialized envelope (whose serialize() already reserved the
  /// CRC's room) and offers it to the WAN. The channel copies each delivered
  /// payload, so the sealed frame is only read here.
  std::vector<Delivery> transmit_framed(FaultyChannel& channel, Bytes frame, MessageType type,
                                        double send_time, std::uint64_t& frames) {
    frame_seal(frame);
    const bool request = type == MessageType::kClusterRequest;
    InFlightMessage msg;
    msg.from = request ? "mobile" : "server";
    msg.to = request ? "server" : "mobile";
    msg.type = type;
    msg.payload = std::move(frame);
    msg.send_time = send_time;
    ++frames;
    return channel.transmit(msg, kBaseLatencyS);
  }

  /// One request end-to-end as a spawned coroutine: attempts x (frame ->
  /// WAN -> cluster -> WAN) with the attempt deadline applied to delivery
  /// times; the capped exponential backoff between attempts is a co_await
  /// into the timer wheel, so a backing-off request holds no thread. The
  /// request owns its link: one FaultyChannel seeded from the configured
  /// seed and the request id serves all of its attempts, so its fault trace
  /// is a function of its id, not of scheduling or of other requests.
  runtime::Task<void> run_job(Job job) {
    FaultyChannelConfig channel_config = config.channel;
    channel_config.seed += job.request_id;
    FaultyChannel channel(channel_config);
    GatewayResult result;
    result.request_id = job.request_id;

    double clock = 0.0;  // virtual session clock driving the channel model
    bool saw_response = false;
    AccessStatus last_status = AccessStatus::kRetryExhausted;
    Bytes last_grant;
    std::uint64_t frames = 0, corrupt = 0, late = 0;
    // base * 2^attempt, doubled in floating point: a shift would overflow
    // from attempt 32 on, and max_attempts has no upper bound.
    double uncapped_backoff = config.backoff_base_s;

    for (std::uint32_t attempt = 0; attempt < config.max_attempts; ++attempt) {
      result.attempts = attempt + 1;
      ClusterRequest envelope;
      envelope.request_id = job.request_id;  // stable across attempts
      envelope.tenant_id = job.tenant_id;
      envelope.attempt = attempt;
      envelope.inner = job.inner;

      const double deadline = clock + config.attempt_timeout_s;
      std::vector<Delivery> copies = transmit_framed(
          channel, envelope.serialize(), MessageType::kClusterRequest, clock, frames);

      std::optional<ClusterResponse> response;
      for (Delivery& copy : copies) {
        if (copy.arrival_s > deadline) {
          ++late;
          continue;
        }
        const auto payload = unframe_view(copy.payload);
        if (!payload) {
          ++corrupt;
          continue;
        }
        ClusterRequest arrived;
        try {
          arrived = ClusterRequest::parse(*payload);
        } catch (const WireError&) {
          ++corrupt;
          continue;
        }
        // Duplicated copies re-execute harmlessly: the cluster's idempotency
        // cache returns the recorded response to every copy after the first.
        const ClusterResponse server_answer = cluster.execute(arrived);

        for (Delivery& back :
             transmit_framed(channel, server_answer.serialize(), MessageType::kClusterResponse,
                             copy.arrival_s, frames)) {
          if (back.arrival_s > deadline) {
            ++late;
            continue;
          }
          const auto reply_payload = unframe_view(back.payload);
          if (!reply_payload) {
            ++corrupt;
            continue;
          }
          try {
            ClusterResponse parsed = ClusterResponse::parse(*reply_payload);
            if (parsed.request_id == job.request_id) {
              response = std::move(parsed);
              break;
            }
          } catch (const WireError&) {
            ++corrupt;
          }
        }
        if (response) break;
      }

      if (response) {
        saw_response = true;
        last_status = response->status;
        last_grant = std::move(response->grant_wire);
        // Anything but kUnavailable is a final answer; kUnavailable is the
        // one status worth retrying through (failover may land meanwhile).
        if (last_status != AccessStatus::kUnavailable) break;
      }
      if (attempt + 1 < config.max_attempts) {
        const double backoff = std::min(uncapped_backoff, config.backoff_max_s);
        uncapped_backoff *= 2.0;
        // Real-time wait, suspended in the timer wheel (sleep_for resumes
        // inline when backoff is zero). The virtual clock advances by the
        // same amount so the channel model sees identical timing.
        co_await loop.sleep_for(backoff);
        clock = deadline + backoff;
      }
    }

    // Typed resolution, always: a request that heard nothing at all across
    // its whole budget is kRetryExhausted; one whose latest news was "owner
    // down" stays kUnavailable.
    result.status = saw_response ? last_status : AccessStatus::kRetryExhausted;
    result.grant_wire = std::move(last_grant);

    // Disconnected-operation fallback: the cluster is unreachable (nothing
    // heard, or owner down with no failover landing) and the submitted wire
    // is a signed GrantToken — let the actuator-side verifier decide with
    // the keys it holds locally. Online answers always win; the fallback
    // only fires when the vault had no say at all.
    if (config.offline_verifier != nullptr &&
        (result.status == AccessStatus::kRetryExhausted ||
         result.status == AccessStatus::kUnavailable) &&
        !job.inner.empty() &&
        job.inner[0] == static_cast<std::uint8_t>(MessageType::kGrantToken)) {
      const double offline_clock = config.offline_now ? config.offline_now() : 0.0;
      result.status = config.offline_verifier->verify(job.inner, offline_clock);
      result.offline = true;
    }

    {
      std::lock_guard<std::mutex> lock(stats_mutex);
      counters.resolved += 1;
      counters.attempts += result.attempts;
      counters.frames_sent += frames;
      counters.corrupt_dropped += corrupt;
      counters.timed_out_copies += late;
      counters.outcomes[static_cast<std::size_t>(result.status)] += 1;
      if (result.offline) {
        counters.offline_verified += 1;
        if (result.status == AccessStatus::kGranted) counters.offline_granted += 1;
      }
    }
    if (job.callback) job.callback(result);
    window.release();
  }
};

ReaderGateway::ReaderGateway(VaultCluster& cluster, const GatewayConfig& config)
    : impl_(new Impl(cluster, config)) {}

ReaderGateway::~ReaderGateway() { finish(); }

std::optional<std::uint64_t> ReaderGateway::submit(std::uint64_t tenant_id,
                                                   std::span<const std::uint8_t> request_wire,
                                                   Callback callback) {
  if (!impl_->window.acquire()) return std::nullopt;  // finished
  Job job;
  job.request_id = (std::uint64_t{impl_->config.gateway_id} << 48) |
                   (impl_->next_seq.fetch_add(1, std::memory_order_relaxed) & 0xFFFFFFFFFFFFull);
  job.tenant_id = tenant_id;
  job.inner.assign(request_wire.begin(), request_wire.end());
  job.callback = std::move(callback);
  const std::uint64_t id = job.request_id;
  // Count before spawn so submitted >= resolved at every instant.
  {
    std::lock_guard<std::mutex> lock(impl_->stats_mutex);
    impl_->counters.submitted += 1;
  }
  if (impl_->loop.spawn(impl_->run_job(std::move(job)))) return id;
  // Lost the race with finish(): the loop is closed, nothing was spawned.
  impl_->window.release();
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  impl_->counters.submitted -= 1;
  return std::nullopt;
}

void ReaderGateway::finish() {
  impl_->window.close();  // blocked submitters return nullopt
  impl_->loop.close();
  impl_->loop.drain();
}

GatewayStats ReaderGateway::stats() const {
  std::lock_guard<std::mutex> lock(impl_->stats_mutex);
  return impl_->counters;
}

}  // namespace wavekey::server
