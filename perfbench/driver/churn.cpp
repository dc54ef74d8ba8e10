// Churn stage: the control plane's write side, closed loop on one thread.
//
// Setup fills a KeyVault with kSessions sessions spread over one TTL of an
// explicit virtual time axis, and provisions every tag of a GrantIssuer
// (KdfTree + audit log) onto one OfflineVerifier per actuator. Each
// operation then advances the virtual clock by kTickS, so TTL expiry is a
// function of the operation count alone, and draws one operation from a
// fixed mix: install a new session, rotate or revoke a recently installed
// one, sweep expired sessions, mint an offline grant, or verify the oldest
// outstanding grant at its actuator. Installs replace what expiry removes,
// so the vault stays near kSessions entries.
//
// Oracles: every rotate returns the epoch a bench-side model predicts (or
// nothing for a revoked session); sampled rotations are followed by a
// request at the old epoch, which must get kStaleEpoch; sampled revocations
// by a request at the current epoch, which must get kRevoked; every fresh
// grant verifies, every re-presented one is a replay, and the verifiers'
// accept counts equal those exactly; each audit chain passes verify_range.
// The grant side is rebuilt every kRoundOps operations (untimed) so the
// audit log's memory stays bounded.
//
// churn_ops_per_s is the closed loop's rate: operations over the sum of
// their times. Each operation's time also goes into a histogram; its p99 is
// printed and, in a traced run, reported per layer as churn.us_p99. It is
// not an end-to-end metric: on the shared VM this was tuned on, a p99 is set
// by the operations the host slowed, and across runs of the same code it
// spread by 0.26-0.31 of its median, wider than any allowed bound.

#include <cmath>
#include <deque>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "crypto/kdf_tree.hpp"
#include "numeric/rng.hpp"
#include "server/audit.hpp"
#include "server/grants.hpp"
#include "server/key_vault.hpp"

namespace perfbench {
namespace {

using namespace wavekey;
using server::AccessStatus;
using server::Bytes;

constexpr std::size_t kSessions = 100000;
constexpr double kTickS = 1e-4;  ///< virtual seconds per operation
// Install share x TTL / tick == kSessions keeps the vault near its fill size.
constexpr double kInstallShare = 0.20;
constexpr double kTtlS = static_cast<double>(kSessions) * kTickS / kInstallShare;
constexpr std::uint64_t kTenants = 8;
constexpr std::uint64_t kTagsPerTenant = 128;
constexpr std::uint64_t kActuators = 16;
constexpr std::uint32_t kScope = 0x3;
constexpr std::size_t kRoundOps = 1u << 17;
constexpr std::size_t kStaleProbeEvery = 16;   ///< rotations per stale-epoch probe
constexpr std::size_t kRevokeProbeEvery = 4;   ///< revocations per kRevoked probe
constexpr std::size_t kReplayProbeEvery = 32;  ///< verifications per replay probe
constexpr std::size_t kTraceEvery = 16;        ///< traced run: spans on every 16th op
constexpr double kOpsPerBudgetSecond = 600000;  ///< about one second of work on the reference host

enum Op : int { kInstall, kRotate, kRevoke, kPurge, kIssue, kVerify, kOpCount };
constexpr const char* kOpSpan[kOpCount] = {"server.vault_install.churn", "server.vault_rotate",
                                           "server.vault_revoke",  "server.vault_purge",
                                           "server.grant_issue",   "server.grant_verify"};
/// Cumulative mix in percent: install 20, rotate 20, revoke 5, purge 5,
/// issue 25, verify 25.
constexpr int kMixEdge[kOpCount] = {20, 40, 45, 50, 75, 100};

server::VaultConfig vault_config() {
  server::VaultConfig vc;
  vc.capacity = 1u << 18;  // headroom: LRU eviction would break the model
  vc.ttl_s = kTtlS;
  return vc;
}

/// Durations (ns) in log-spaced buckets 0.5 % wide, from 10 ns to about
/// 10 ms: quantiles of millions of operations in a few kilobytes.
class DurationHistogram {
 public:
  void add(double ns) {
    const double b = ns > kMinNs ? std::log(ns / kMinNs) / std::log(kGrowth) : 0.0;
    ++counts_[std::min(kBuckets - 1, static_cast<std::size_t>(b))];
    ++total_;
  }
  /// Quantile q in [0, 1] (ns), interpolated geometrically in its bucket.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1) + 0.5;
    double below = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto n = static_cast<double>(counts_[i]);
      if (below + n >= rank)
        return kMinNs * std::pow(kGrowth, static_cast<double>(i) + (rank - below) / n);
      below += n;
    }
    return kMinNs * std::pow(kGrowth, static_cast<double>(kBuckets));
  }

 private:
  static constexpr double kMinNs = 10.0;
  static constexpr double kGrowth = 1.005;
  static constexpr std::size_t kBuckets = 2800;
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t total_ = 0;
};

/// Bench-side model of one session.
struct Model {
  double installed_at = 0.0;
  std::uint32_t epoch = 0;
  bool revoked = false;
};

/// Grant side: issuer, audit log and verifiers, rebuilt each round.
struct Grants {
  std::unique_ptr<server::AuditLog> audit;
  std::unique_ptr<server::GrantIssuer> issuer;
  std::vector<std::unique_ptr<server::OfflineVerifier>> verifiers;
  std::deque<std::pair<std::uint64_t, Bytes>> outstanding;  ///< (actuator, token) FIFO
  std::unique_ptr<server::AuditLog> scratch_audit;          ///< traced appends only
};

struct Fixture {
  std::array<std::uint8_t, 32> master{};
  std::unique_ptr<server::KeyVault> vault;
  /// Models of the sessions installed within the last TTL/2 (never expired,
  /// so the only rotate/revoke targets): ids model_base .. model_base+size-1.
  std::deque<Model> model;
  std::uint64_t model_base = 0;
  std::vector<crypto::Digest256> tag_keys;  ///< epoch-0 tag keys, for traced KDF calls
  Grants grants;
};

std::unique_ptr<server::AuditLog> new_audit(const std::array<std::uint8_t, 32>& master) {
  server::AuditLog::Config ac;
  ac.shards = 4;
  ac.seal_key = crypto::Sha256::hash(master);
  return std::make_unique<server::AuditLog>(ac);
}

void build_grants(Fixture& fx) {
  Grants& g = fx.grants;
  g = Grants{};
  g.audit = new_audit(fx.master);
  g.scratch_audit = new_audit(fx.master);
  g.issuer = std::make_unique<server::GrantIssuer>(fx.master, g.audit.get());
  for (std::uint64_t a = 0; a < kActuators; ++a)
    g.verifiers.push_back(std::make_unique<server::OfflineVerifier>(a, g.audit.get()));
  for (std::uint64_t t = 0; t < kTenants; ++t)
    for (std::uint64_t tag = 0; tag < kTagsPerTenant; ++tag) {
      const server::ProvisionedTag p = g.issuer->provision(t, tag, kScope);
      for (auto& v : g.verifiers) v->provision(p);
    }
}

std::unique_ptr<Fixture> build_fixture(std::uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  Rng rng(mix64(seed ^ 0x636875726eull));
  rng.fill_bytes(fx->master);
  fx->vault = std::make_unique<server::KeyVault>(vault_config());
  fx->model.resize(kSessions);  // model_base 0: ids 0 .. kSessions-1
  server::SessionKey key{};
  for (std::size_t s = 0; s < kSessions; ++s) {
    const double t = static_cast<double>(s) * kTtlS / static_cast<double>(kSessions);
    rng.fill_bytes(key);
    fx->vault->install(s, key, t);
    fx->model[s].installed_at = t;
  }
  const crypto::KdfTree tree(fx->master);
  for (std::uint64_t t = 0; t < kTenants; ++t)
    for (std::uint64_t tag = 0; tag < kTagsPerTenant; ++tag)
      fx->tag_keys.push_back(tree.tag_key(t, tag));
  build_grants(*fx);
  return fx;
}

AccessStatus probe(server::KeyVault& vault, std::uint64_t id, std::uint32_t epoch,
                   const server::SessionKey& key, double now) {
  const server::AccessRequest req = server::make_access_request(id, epoch, 1, {}, {0x43}, key);
  return vault.authorize(req, req.mac_input(), now, nullptr);
}

class ChurnStage final : public Stage {
 public:
  ChurnStage(const Options& opt, Tracer& tracer, std::vector<double>& setup_s)
      : opt_(opt), tracer_(tracer), rng_(mix64(opt.seed ^ 0x6f7073ull)) {
    for (std::size_t r = 0; r < setup_s.size(); ++r) {
      fx_.reset();
      const std::uint64_t t0 = now_ns();
      fx_ = build_fixture(opt.seed);
      setup_s[r] += static_cast<double>(now_ns() - t0) / 1e9;
    }
  }

  /// A fixed number of operations per second of budget, not a time limit:
  /// the vault's size, expired and tombstoned entries then follow the same
  /// course on every run whatever the host's speed, and only the time the
  /// operations take is measured.
  void run_slice(double seconds) override {
    const auto n = static_cast<std::uint64_t>(seconds * kOpsPerBudgetSecond);
    for (std::uint64_t i = 0; i < n; ++i) step();
  }

  void finish(Report& report) override {
    close_round();
    report.attempts(ops_, failed_);
    report.check(failed_ == 0, "churn: every operation returns its modelled outcome");
    report.check(stale_failures_ == 0, "churn: a stale epoch gets kStaleEpoch");
    report.check(revoked_failures_ == 0, "churn: a revoked session gets kRevoked");
    report.check(replay_failures_ == 0, "churn: a re-presented grant is a replay");
    report.check(audit_ok_, "churn: every audit chain passes verify_range");
    report.check(counts_ok_, "churn: offline accept and replay counts are exact");
    const server::VaultStats vs = fx_->vault->stats();
    report.check(vs.lru_evictions == 0, "churn: no LRU eviction (model stays exact)");
    report.check(vs.purged_expired == purged_, "churn: purge counts agree with the vault");
    std::printf("churn: %llu ops, %llu rotations (%llu stale probes), %llu revocations (%llu "
                "probes), %llu grants verified (%llu replay probes), %llu purged, %zu resident, "
                "%llu audit records\n",
                static_cast<unsigned long long>(ops_), static_cast<unsigned long long>(rotations_),
                static_cast<unsigned long long>(stale_probes_),
                static_cast<unsigned long long>(revocations_),
                static_cast<unsigned long long>(revoked_probes_),
                static_cast<unsigned long long>(fresh_verifies_),
                static_cast<unsigned long long>(replay_probes_),
                static_cast<unsigned long long>(purged_), fx_->vault->size(),
                static_cast<unsigned long long>(audit_records_));

    if (!opt_.trace) {
      report.metric("churn_ops_per_s", static_cast<double>(ops_) / (busy_ns_ / 1e9), "1/s");
      std::printf("churn_us_p99 %.4f us\n", ns_to_us(op_ns_.quantile(0.99)));
      return;
    }
    report.metric("churn.us_p99", ns_to_us(op_ns_.quantile(0.99)), "us");
    const auto p50_us = [&](const char* name) {
      return ns_to_us(quantile(tracer_.span_self_ns(name), 0.5));
    };
    report.metric("server.vault_install_us.churn", p50_us("server.vault_install.churn"), "us");
    report.metric("server.vault_rotate_us", p50_us("server.vault_rotate"), "us");
    report.metric("server.vault_revoke_us", p50_us("server.vault_revoke"), "us");
    report.metric("server.vault_purge_us_per_entry",
                  purge_entries_ > 0 ? ns_to_us(purge_ns_ / purge_entries_) : 0.0, "us");
    report.metric("server.grant_issue_us", p50_us("server.grant_issue"), "us");
    report.metric("server.grant_verify_us", p50_us("server.grant_verify"), "us");
    report.metric("crypto.kdf_derive_us", p50_us("crypto.kdf_derive"), "us");
    report.metric("server.audit_append_us", p50_us("server.audit_append"), "us");
  }

 private:
  Model& model(std::uint64_t id) { return fx_->model[id - fx_->model_base]; }

  /// One operation: untimed preparation, the timed call, untimed checks.
  void step() {
    Fixture& f = *fx_;
    if (ops_ > 0 && ops_ % kRoundOps == 0) {
      close_round();
      build_grants(f);
    }
    now_ += kTickS;
    while (f.model.front().installed_at < now_ - kTtlS / 2) {
      f.model.pop_front();
      ++f.model_base;
    }
    const int pick = static_cast<int>(rng_.uniform_u64(100));
    int op = 0;
    while (pick >= kMixEdge[op]) ++op;
    if (op == kVerify && f.grants.outstanding.empty()) op = kIssue;
    const bool traced = opt_.trace && ops_ % kTraceEvery == 0;
    const std::uint64_t span_id = ops_;

    std::uint64_t target = 0;
    std::optional<server::SessionKey> old_key;
    std::uint32_t old_epoch = 0;
    server::SessionKey new_key{};
    std::uint64_t tenant = 0, tag = 0, actuator = 0;
    if (op == kRotate || op == kRevoke) {
      for (int tries = 0; tries < 8; ++tries) {
        target = f.model_base + rng_.uniform_u64(f.model.size());
        if (op == kRotate || !model(target).revoked) break;
      }
      if (op == kRevoke && model(target).revoked) op = kRotate;  // all tries revoked
      const bool probe_due = op == kRotate ? rotations_ % kStaleProbeEvery == 0
                                           : revocations_ % kRevokeProbeEvery == 0;
      if (probe_due && !model(target).revoked) {
        old_key = f.vault->current_key(target, now_);
        old_epoch = model(target).epoch;
      }
    } else if (op == kInstall) {
      rng_.fill_bytes(new_key);
    } else if (op == kIssue) {
      tenant = rng_.uniform_u64(kTenants);
      tag = rng_.uniform_u64(kTagsPerTenant);
      actuator = rng_.uniform_u64(kActuators);
    }

    bool ok = true;
    std::uint64_t t0 = 0, t1 = 0;
    {
      Tracer::Scope span(tracer_, traced ? kOpSpan[op] : nullptr, span_id);
      t0 = now_ns();
      switch (op) {
        case kInstall:
          ok = f.vault->install(f.model_base + f.model.size(), new_key, now_);
          break;
        case kRotate: {
          const std::optional<std::uint32_t> epoch = f.vault->rotate(target, now_);
          ok = model(target).revoked ? !epoch : epoch && *epoch == model(target).epoch + 1;
          break;
        }
        case kRevoke:
          ok = f.vault->revoke(target);
          break;
        case kPurge: {
          const std::size_t n = f.vault->purge_expired(now_);
          purged_ += n;
          purge_entries_ += static_cast<double>(n);
          break;
        }
        case kIssue: {
          const std::optional<server::GrantToken> token =
              f.grants.issuer->issue(tenant, tag, actuator, kScope, 1e6, now_);
          ok = token.has_value();
          if (ok) f.grants.outstanding.emplace_back(actuator, token->serialize());
          break;
        }
        case kVerify: {
          const auto& [act, wire] = f.grants.outstanding.front();
          ok = f.grants.verifiers[act]->verify(wire, now_) == AccessStatus::kGranted;
          break;
        }
      }
      t1 = now_ns();
    }
    const auto dt = static_cast<double>(t1 - t0);
    op_ns_.add(dt);
    busy_ns_ += dt;
    ++ops_;

    switch (op) {
      case kInstall:
        f.model.push_back({now_, 0, false});
        break;
      case kRotate:
        ++rotations_;
        if (!model(target).revoked) ++model(target).epoch;
        if (old_key) {
          ++stale_probes_;
          if (probe(*f.vault, target, old_epoch, *old_key, now_) != AccessStatus::kStaleEpoch) {
            ok = false;
            ++stale_failures_;
          }
        }
        break;
      case kRevoke:
        ++revocations_;
        model(target).revoked = true;
        if (old_key) {
          ++revoked_probes_;
          if (probe(*f.vault, target, old_epoch, *old_key, now_) != AccessStatus::kRevoked) {
            ok = false;
            ++revoked_failures_;
          }
        }
        break;
      case kPurge:
        purge_ns_ += dt;
        break;
      case kIssue:
        if (traced) {
          // The two layers issue() wraps, called on their own: the grant_mac
          // leaf derivation and one audit append.
          const crypto::Digest256& tag_key = f.tag_keys[tenant * kTagsPerTenant + tag];
          {
            Tracer::Scope span(tracer_, "crypto.kdf_derive", span_id);
            const crypto::Digest256 leaf =
                crypto::KdfTree::purpose_key(tag_key, crypto::KeyPurpose::kGrantMac);
            (void)leaf;
          }
          server::AuditRecord record;
          record.kind = server::AuditKind::kIssue;
          record.tenant_id = tenant;
          record.tag_uid = tag;
          record.actuator_id = actuator;
          Tracer::Scope span(tracer_, "server.audit_append", span_id);
          f.grants.scratch_audit->append(record);
        }
        break;
      case kVerify: {
        ++fresh_verifies_;
        if (ok) ++accepted_;
        if (fresh_verifies_ % kReplayProbeEvery == 0) {
          const auto& [act, wire] = f.grants.outstanding.front();
          ++replay_probes_;
          if (f.grants.verifiers[act]->verify(wire, now_) == AccessStatus::kReplay) {
            ++replays_rejected_;
          } else {
            ok = false;
            ++replay_failures_;
          }
        }
        f.grants.outstanding.pop_front();
        break;
      }
      default:
        break;
    }
    failed_ += !ok;
  }

  /// Closes a grant round: audit chains verify, verifier counts are exact.
  void close_round() {
    Grants& g = fx_->grants;
    std::uint64_t granted = 0, replays = 0;
    for (const auto& v : g.verifiers) {
      const server::OfflineVerifier::Stats st = v->stats();
      granted += st.granted;
      replays += st.by_status[static_cast<std::size_t>(AccessStatus::kReplay)];
    }
    counts_ok_ = counts_ok_ && granted == accepted_ && replays == replays_rejected_;
    for (std::size_t sh = 0; sh < g.audit->shards(); ++sh)
      audit_ok_ = audit_ok_ && !g.audit->verify_range(sh, 0, g.audit->size(sh));
    audit_records_ += g.audit->total_size();
    accepted_ = replays_rejected_ = 0;
  }

  const Options& opt_;
  Tracer& tracer_;
  Rng rng_;
  std::unique_ptr<Fixture> fx_;
  double now_ = kTtlS;
  DurationHistogram op_ns_;  ///< every operation's time
  double busy_ns_ = 0.0;     ///< sum of every operation's time
  double purge_ns_ = 0.0, purge_entries_ = 0.0;
  std::uint64_t ops_ = 0, failed_ = 0, rotations_ = 0, revocations_ = 0;
  std::uint64_t stale_probes_ = 0, revoked_probes_ = 0, replay_probes_ = 0;
  std::uint64_t fresh_verifies_ = 0, accepted_ = 0, replays_rejected_ = 0, purged_ = 0;
  std::uint64_t audit_records_ = 0;
  std::uint64_t stale_failures_ = 0, revoked_failures_ = 0, replay_failures_ = 0;
  bool audit_ok_ = true, counts_ok_ = true;
};

}  // namespace

std::unique_ptr<Stage> make_churn(const Options& opt, Tracer& tracer,
                                  std::vector<double>& setup_s) {
  return std::make_unique<ChurnStage>(opt, tracer, setup_s);
}

}  // namespace perfbench
