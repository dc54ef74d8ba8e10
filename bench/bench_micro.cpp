// Micro-benchmarks (google-benchmark) of the primitives underlying the
// headline numbers: hashing, the OT group arithmetic, Reed-Solomon,
// Savitzky-Golay, the NN inference, and one full protocol run. These back
// the tau/Table III measurements with per-primitive costs.

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string_view>

#include "core/dataset.hpp"
#include "core/encoders.hpp"
#include "crypto/drbg.hpp"
#include "crypto/field25519.hpp"
#include "crypto/sha256.hpp"
#include "dsp/savitzky_golay.hpp"
#include "ecc/reed_solomon.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/gemm.hpp"
#include "protocol/session.hpp"
#include "runtime/cpu.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/flat_map.hpp"
#include "runtime/task.hpp"
#include "crypto/kdf_tree.hpp"
#include "server/access_exchange.hpp"
#include "server/access_protocol.hpp"
#include "server/audit.hpp"
#include "server/grants.hpp"
#include "server/key_vault.hpp"
#include "server/cluster.hpp"
#include "server/membership.hpp"
#include "sim/scenario.hpp"

using namespace wavekey;

namespace {

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xAB);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_ChaChaDrbg_32B(benchmark::State& state) {
  // One 32-byte draw, the protocol's largest (an OT exponent or a key).
  crypto::Drbg drbg(1);
  std::array<std::uint8_t, 32> out;
  for (auto _ : state) {
    drbg.random_bytes(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_ChaChaDrbg_32B);

void BM_Fe25519_Pow(benchmark::State& state) {
  crypto::Drbg drbg(2);
  auto e = drbg.random_scalar_bytes();
  e[31] &= 0x7F;
  const crypto::Fe25519 g = crypto::Fe25519::generator();
  for (auto _ : state) benchmark::DoNotOptimize(g.pow(e));
}
BENCHMARK(BM_Fe25519_Pow);

// A session's 96 variable-base exponentiations in one pow_batch call: the
// eight-lane IFMA kernel on hosts that have it, 96 pow calls elsewhere.
struct PowBatch96 {
  std::vector<crypto::Fe25519> bases, out;
  std::vector<std::array<std::uint8_t, 32>> exponents;
  PowBatch96() : out(96), exponents(96) {
    crypto::Drbg drbg(2);
    for (auto& e : exponents) {
      drbg.random_bytes(e);
      e[31] &= 0x7F;
      bases.push_back(crypto::Fe25519::generator().pow(e));
    }
    for (auto& e : exponents) {
      drbg.random_bytes(e);
      e[31] &= 0x7F;
    }
  }
  void run() {
    crypto::Fe25519::pow_batch(bases, exponents, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
};

void BM_Fe25519_PowBatch96(benchmark::State& state) {
  PowBatch96 batch;
  for (auto _ : state) batch.run();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 96);
}
BENCHMARK(BM_Fe25519_PowBatch96);

void BM_Fe25519_Square(benchmark::State& state) {
  crypto::Drbg drbg(2);
  auto e = drbg.random_scalar_bytes();
  e[31] &= 0x7F;
  crypto::Fe25519 x = crypto::Fe25519::generator().pow(e);
  for (auto _ : state) {
    x = x.square();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Fe25519_Square);

void BM_OtPrecompute48(benchmark::State& state) {
  // One party's seed-independent OT work for a 48-bit seed: PadSender (48
  // exponents and pad pairs, then the g^a and k1 batches) and PadReceiver
  // (48 exponents, then the g^b batch). Runs inside the gesture window.
  const protocol::AgreementParams params;
  crypto::Drbg rng(3);
  for (auto _ : state) {
    const protocol::PadSender sender(params, rng);
    const protocol::PadReceiver receiver(params, rng);
    benchmark::DoNotOptimize(&sender);
    benchmark::DoNotOptimize(&receiver);
  }
}
BENCHMARK(BM_OtPrecompute48);

void BM_OtCipherMessage96(benchmark::State& state) {
  // M_B -> M_E for a 96-instance batch: parse, one pow_batch, then the
  // k1 factor, two SHA-256 and two stream-cipher calls per instance.
  protocol::AgreementParams params;
  params.seed_bits = 96;
  crypto::Drbg rng(3);
  const protocol::PadSender sender(params, rng);
  const protocol::PadReceiver receiver(params, rng.random_bits(96), sender.message_a(), rng);
  const protocol::Bytes msg_b = receiver.message_b();
  for (auto _ : state) benchmark::DoNotOptimize(sender.make_cipher_message(msg_b, rng));
}
BENCHMARK(BM_OtCipherMessage96);

void BM_OtReceivePads96(benchmark::State& state) {
  // M_E -> pads for a 96-instance batch: derive_keys (one pow_batch and a
  // SHA-256 per instance), then receive_pads (parse, one stream-cipher
  // call per instance). Report-only: the row is printed, not gated.
  protocol::AgreementParams params;
  params.seed_bits = 96;
  crypto::Drbg rng(3);
  const protocol::PadSender sender(params, rng);
  protocol::PadReceiver receiver(params, rng.random_bits(96), sender.message_a(), rng);
  const protocol::Bytes msg_e = sender.make_cipher_message(receiver.message_b(), rng);
  for (auto _ : state) {
    receiver.derive_keys();
    benchmark::DoNotOptimize(receiver.receive_pads(msg_e));
  }
}
BENCHMARK(BM_OtReceivePads96);

void BM_RsEncode(benchmark::State& state) {
  // The session's code: the default parameters (l_s = 48, l_k = 256,
  // eta = 0.10) give a 288-bit preliminary key, 36 bytes, and a budget of 8
  // byte errors, so RS(52, 36) with 16 parity bytes. At the eta cap of 0.25
  // the widest session code is RS(84, 36).
  const ecc::ReedSolomon rs(16);
  Rng rng(14);
  std::vector<std::uint8_t> data(36);
  for (auto& d : data) d = static_cast<std::uint8_t>(rng.uniform_u64(256));
  for (auto _ : state) benchmark::DoNotOptimize(rs.encode(data));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 36);
}
BENCHMARK(BM_RsEncode);

void BM_ReedSolomon_Decode(benchmark::State& state) {
  const ecc::ReedSolomon rs(16);
  Rng rng(4);
  std::vector<std::uint8_t> data(100);
  for (auto& d : data) d = static_cast<std::uint8_t>(rng.uniform_u64(256));
  auto cw = rs.encode(data);
  for (int e = 0; e < 8; ++e) cw[e * 13] ^= 0x5A;
  for (auto _ : state) benchmark::DoNotOptimize(rs.decode(cw));
}
BENCHMARK(BM_ReedSolomon_Decode);

void BM_SavitzkyGolay_400(benchmark::State& state) {
  const dsp::SavitzkyGolayFilter sg(11, 3);
  Rng rng(5);
  std::vector<double> xs(400);
  for (auto& x : xs) x = rng.normal();
  for (auto _ : state) benchmark::DoNotOptimize(sg.apply(xs));
}
BENCHMARK(BM_SavitzkyGolay_400);

core::EncoderPair& micro_encoders() {
  static core::EncoderPair encoders = [] {
    Rng rng(6);
    return core::EncoderPair(12, rng);
  }();
  return encoders;
}

void BM_ImuEncoderInference(benchmark::State& state) {
  nn::Tensor input({3, 200});
  Rng rng(7);
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = static_cast<float>(rng.normal());
  for (auto _ : state) benchmark::DoNotOptimize(micro_encoders().imu_features(input));
}
BENCHMARK(BM_ImuEncoderInference);

void BM_Conv1dForward(benchmark::State& state) {
  // The IMU encoder's first layer shape: Conv1D(3 -> 16, k=7, s=2, p=3).
  Rng rng(11);
  nn::Conv1D conv(3, 16, 7, 2, 3, rng);
  nn::Tensor input({1, 3, 200});
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = static_cast<float>(rng.normal());
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(input, false));
}
BENCHMARK(BM_Conv1dForward);

void BM_DenseForward(benchmark::State& state) {
  // The IMU encoder's bottleneck layer shape: Dense(1200 -> 128).
  Rng rng(12);
  nn::Dense dense(1200, 128, rng);
  nn::Tensor input({1, 1200});
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = static_cast<float>(rng.normal());
  for (auto _ : state) benchmark::DoNotOptimize(dense.forward(input, false));
}
BENCHMARK(BM_DenseForward);

void BM_GestureSimulation(benchmark::State& state) {
  sim::ScenarioConfig sc;
  sc.gesture.active_s = 3.0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sim::ScenarioSimulator simulator(sc, ++seed);
    benchmark::DoNotOptimize(simulator.run());
  }
}
BENCHMARK(BM_GestureSimulation);

void BM_FullKeyAgreement256(benchmark::State& state) {
  protocol::SessionConfig config;
  config.params.seed_bits = 48;
  config.params.key_bits = 256;
  config.params.eta = 0.1;
  crypto::Drbg m(8), s(9), seed_rng(10);
  const BitVec seed = seed_rng.random_bits(48);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::run_key_agreement(config, seed, seed, m, s));
  }
}
BENCHMARK(BM_FullKeyAgreement256);

void BM_GemmF32(benchmark::State& state) {
  // 64x64x64 NN-shaped multiply through the dispatched gemm_nn.
  constexpr std::size_t kDim = 64;
  Rng rng(15);
  std::vector<float> a(kDim * kDim), b(kDim * kDim), c(kDim * kDim, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    nn::gemm_nn(kDim, kDim, kDim, a.data(), kDim, b.data(), kDim, c.data(), kDim, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * kDim * kDim * kDim);
}
BENCHMARK(BM_GemmF32);

void BM_ClusterFrame(benchmark::State& state) {
  // Gateway wire round-trip: envelope serialize (one buffer sized for the
  // frame) -> CRC seal in place -> unframe -> parse as spans, on a typical
  // 64-byte inner request. This is the per-copy overhead the WAN transport
  // adds on top of the access protocol itself.
  const protocol::Bytes inner(64, 0xA7);
  server::ClusterRequest request;
  request.request_id = 0x123456789ABCull;
  request.tenant_id = 42;
  request.inner = inner;
  for (auto _ : state) {
    protocol::Bytes frame = request.serialize();
    server::frame_seal(frame);
    const auto payload = server::unframe_view(frame);
    benchmark::DoNotOptimize(server::ClusterRequest::parse(*payload));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ClusterFrame);

void BM_PartitionMapRoute(benchmark::State& state) {
  // Hot routing lookup of the cluster serving path: session id -> partition
  // -> owners, against a prebuilt 8-node / 256-partition ring. One route is
  // ~4 ns, too short for a 15 % gate to resolve, so each iteration times a
  // batch of 1024 routes.
  constexpr int kBatch = 1024;
  server::PartitionMap map(256, 64);
  std::vector<server::NodeId> nodes;
  for (server::NodeId id = 0; id < 8; ++id) nodes.push_back(id);
  map.rebuild(nodes);
  std::uint64_t sid = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      const std::uint32_t p = server::partition_of(sid++, map.partitions());
      benchmark::DoNotOptimize(map.owners(p));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_PartitionMapRoute);

runtime::Task<void> noop_task() { co_return; }

void BM_EventLoopSpawn(benchmark::State& state) {
  // Full coroutine lifecycle on the serving loop: frame allocation, spawn,
  // hand-off to the worker, run, frame destruction. Batched 64 per drain()
  // so the completion wait amortizes and the number reflects per-task cost.
  constexpr int kBatch = 64;
  runtime::EventLoop loop(1);
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) loop.spawn(noop_task());
    loop.drain();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
}
BENCHMARK(BM_EventLoopSpawn);


void BM_FlatMapProbe(benchmark::State& state) {
  // Hit-probe of the vault's open-addressing store at 64k resident keys:
  // one splitmix mix, one SIMD group scan, one tag-confirmed compare. This
  // is the per-lookup floor under every shard operation.
  runtime::FlatMap<std::uint64_t> map;
  constexpr std::uint64_t kN = 1 << 16;
  map.reserve(kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    const auto [idx, fresh] = map.find_or_insert(i * 7919 + 1);
    map.at(idx) = i;
  }
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(k * 7919 + 1));
    k = (k + 1) & (kN - 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FlatMapProbe);

void BM_VaultAuthorizeHot(benchmark::State& state) {
  // Full authorize of a valid pre-MACed request against a warm vault:
  // probe + optimistic snapshot + HMAC outside the lock + re-validate +
  // replay-window mark. Requests are prebuilt with increasing counters;
  // the periodic re-install that resets the replay window is amortized
  // over the batch (one install per 512 grants).
  server::VaultConfig vc;
  vc.shards = 8;
  vc.capacity = 8192;
  vc.ttl_s = 1e9;
  server::KeyVault vault(vc);
  server::SessionKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 3 + 1);
  for (std::uint64_t id = 0; id < 4096; ++id)
    vault.install(id, std::span<const std::uint8_t>(key), 0.0);
  constexpr std::size_t kBatch = 512;
  struct Hot {
    server::AccessRequest req;
    protocol::Bytes mac_input;
  };
  std::vector<Hot> reqs;
  reqs.reserve(kBatch);
  for (std::size_t c = 1; c <= kBatch; ++c) {
    std::array<std::uint8_t, server::kNonceBytes> nonce{};
    nonce[0] = static_cast<std::uint8_t>(c);
    server::AccessRequest req =
        server::make_access_request(7, 0, c, nonce, {0xAC}, key);
    protocol::Bytes mac_input = req.mac_input();
    reqs.push_back(Hot{std::move(req), std::move(mac_input)});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == reqs.size()) {
      vault.install(7, std::span<const std::uint8_t>(key), 0.0);
      i = 0;
    }
    const server::AccessStatus st =
        vault.authorize(reqs[i].req, reqs[i].mac_input, 0.0, nullptr);
    if (st != server::AccessStatus::kGranted) {
      state.SkipWithError("authorize did not grant");
      break;
    }
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_VaultAuthorizeHot);

void BM_AccessRequestPath(benchmark::State& state) {
  // The server's whole request→grant routine on one thread (AccessExchange,
  // as AccessServer and VaultCluster run it): parse the wire, authorize it
  // against a warm vault shaped like BM_VaultAuthorizeHot's, encode the
  // MACed grant. 16-byte payloads, as perfbench's access stream sends.
  // Report-only: not in tools/bench_compare.py's GATED list.
  server::VaultConfig vc;
  vc.shards = 8;
  vc.capacity = 8192;
  vc.ttl_s = 1e9;
  server::KeyVault vault(vc);
  server::SessionKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 3 + 1);
  for (std::uint64_t id = 0; id < 4096; ++id)
    vault.install(id, std::span<const std::uint8_t>(key), 0.0);
  constexpr std::size_t kBatch = 512;
  std::vector<protocol::Bytes> wires;
  wires.reserve(kBatch);
  for (std::size_t c = 1; c <= kBatch; ++c) {
    std::array<std::uint8_t, server::kNonceBytes> nonce{};
    nonce[0] = static_cast<std::uint8_t>(c);
    wires.push_back(
        server::make_access_request(7, 0, c, nonce, protocol::Bytes(16, 0xAC), key).serialize());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == wires.size()) {
      vault.install(7, std::span<const std::uint8_t>(key), 0.0);
      i = 0;
    }
    server::AccessExchange exchange(wires[i]);
    if (exchange.authorize(vault, 0.0) != server::AccessStatus::kGranted) {
      state.SkipWithError("the request path did not grant");
      break;
    }
    protocol::Bytes grant = exchange.grant_wire();
    benchmark::DoNotOptimize(grant);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AccessRequestPath);

void BM_KdfDerive(benchmark::State& state) {
  // Full four-level derivation master -> tenant -> tag -> purpose: three
  // chained labeled HKDF hops plus the purpose leaf (8 HMAC-SHA256
  // invocations end to end). This is the cold-cache cost of materializing
  // one tag's grant_mac key from nothing but the master secret.
  std::array<std::uint8_t, 32> master{};
  for (std::size_t i = 0; i < master.size(); ++i)
    master[i] = static_cast<std::uint8_t>(i * 7 + 3);
  const crypto::KdfTree tree(master);
  std::uint64_t tag = 0;
  for (auto _ : state) {
    const crypto::Digest256 key =
        tree.purpose_key(/*tenant_id=*/1, /*tag_uid=*/tag++, crypto::KeyPurpose::kGrantMac);
    benchmark::DoNotOptimize(key);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KdfDerive);

void BM_GrantIssue(benchmark::State& state) {
  // Vault-side mint on a warm lineage: counter allocation under the issuer
  // lock plus one MAC under the lineage's cached grant_mac HmacKey (no audit
  // log attached; BM_AuditAppend prices the chain link separately).
  std::array<std::uint8_t, 32> master{};
  for (std::size_t i = 0; i < master.size(); ++i)
    master[i] = static_cast<std::uint8_t>(i * 5 + 1);
  server::GrantIssuer issuer(master);
  (void)issuer.provision(/*tenant=*/1, /*tag_uid=*/42, 0x1);
  for (auto _ : state) {
    const std::optional<server::GrantToken> token =
        issuer.issue(1, 42, /*actuator=*/5, 0x1, /*ttl_s=*/1e9, 0.0);
    benchmark::DoNotOptimize(token);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GrantIssue);

void BM_GrantVerifyOffline(benchmark::State& state) {
  // Vault-free token acceptance on the actuator: parse + purpose-key MAC +
  // monotonic counter advance. Tokens are preminted with increasing
  // counters; the verifier reset that reopens the counter stream is
  // amortized over the batch.
  std::array<std::uint8_t, 32> master{};
  for (std::size_t i = 0; i < master.size(); ++i)
    master[i] = static_cast<std::uint8_t>(i * 5 + 1);
  server::GrantIssuer issuer(master);
  const server::ProvisionedTag tag = issuer.provision(/*tenant=*/1, /*tag_uid=*/42, 0x1);
  constexpr std::size_t kBatch = 512;
  std::vector<protocol::Bytes> wires;
  wires.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    const auto token = issuer.issue(1, 42, /*actuator=*/5, 0x1, /*ttl_s=*/1e9, 0.0);
    wires.push_back(token->serialize());
  }
  auto verifier = std::make_unique<server::OfflineVerifier>(/*actuator_id=*/5);
  verifier->provision(tag);
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == wires.size()) {
      verifier = std::make_unique<server::OfflineVerifier>(5);
      verifier->provision(tag);
      i = 0;
    }
    const server::AccessStatus st = verifier->verify(wires[i], 0.0);
    if (st != server::AccessStatus::kGranted) {
      state.SkipWithError("offline verify did not grant");
      break;
    }
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GrantVerifyOffline);

void BM_AuditAppend(benchmark::State& state) {
  // One hash-chain link: serialize the record and extend
  // h_i = SHA256(h_{i-1} || record_i) under the shard lock (SHA-NI
  // dispatched where the host has it). The log restart that bounds memory
  // is amortized over 64Ki appends.
  crypto::Digest256 seal{};
  for (std::size_t i = 0; i < seal.size(); ++i) seal[i] = static_cast<std::uint8_t>(i + 9);
  auto log = std::make_unique<server::AuditLog>(server::AuditLog::Config{1, seal});
  server::AuditRecord record{};
  record.kind = server::AuditKind::kVerify;
  record.tenant_id = 1;
  record.tag_uid = 42;
  record.actuator_id = 5;
  record.status = server::AccessStatus::kGranted;
  std::uint64_t n = 0;
  for (auto _ : state) {
    if (log->total_size() >= 65536) {
      log = std::make_unique<server::AuditLog>(server::AuditLog::Config{1, seal});
    }
    record.counter = ++n;
    log->append(record);
  }
  benchmark::DoNotOptimize(log->head(0));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AuditAppend);

// --- `--simd-check`: forced-scalar vs dispatched speedup assertion ---------
// Run from tools/ci.sh on AVX2 hosts: re-times each vectorized kernel with
// the dispatch tier forced to scalar and then to AVX2 (in-process, via the
// test hook), the two arms interleaved rep by rep so a host phase hits
// both, and fails unless the best times show at least a 2x win. The GEMM
// arm needs AVX2; the PowBatch96 arm needs AVX-512 IFMA and prints a skip
// without it. On non-AVX2 hosts this is a no-op success.

template <typename F>
double seconds(F&& f, int iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

template <typename F>
bool check_speedup(const char* name, F&& f, int reps, int iters) {
  using runtime::cpu::SimdTier;
  constexpr double kMinSpeedup = 2.0;
  double scalar_s = 1e100, avx2_s = 1e100;
  for (int r = 0; r < reps; ++r) {
    runtime::cpu::force_tier_for_testing(SimdTier::kScalar);
    scalar_s = std::min(scalar_s, seconds(f, iters));
    runtime::cpu::force_tier_for_testing(SimdTier::kAvx2);
    avx2_s = std::min(avx2_s, seconds(f, iters));
  }
  runtime::cpu::force_tier_for_testing(std::nullopt);
  const double speedup = scalar_s / avx2_s;
  const bool ok = speedup >= kMinSpeedup;
  std::printf("simd-check %-18s scalar %10.1f us  avx2 %10.1f us  speedup %5.2fx  [%s]\n",
              name, scalar_s * 1e6, avx2_s * 1e6, speedup, ok ? "ok" : "FAIL");
  return ok;
}

int run_simd_check() {
  using runtime::cpu::SimdTier;
  if (runtime::cpu::detected_tier() < SimdTier::kAvx2) {
    std::printf("simd-check: host lacks AVX2, skipping\n");
    return 0;
  }
  Rng rng(16);
  constexpr std::size_t kDim = 64;
  std::vector<float> ga(kDim * kDim), gb(kDim * kDim), gc(kDim * kDim, 0.0f);
  for (auto& v : ga) v = static_cast<float>(rng.normal());
  for (auto& v : gb) v = static_cast<float>(rng.normal());
  bool ok = check_speedup(
      "GemmF32",
      [&] {
        nn::gemm_nn(kDim, kDim, kDim, ga.data(), kDim, gb.data(), kDim, gc.data(), kDim,
                    false);
        benchmark::DoNotOptimize(gc.data());
      },
      5, 500);

  if (runtime::cpu::detected_ifma()) {
    PowBatch96 batch;
    ok = check_speedup("PowBatch96", [&] { batch.run(); }, 600, 1) && ok;
  } else {
    std::printf("simd-check: host lacks AVX-512 IFMA, skipping PowBatch96\n");
  }

  if (!ok) {
    std::printf("simd-check: FAILED (a kernel below the 2x floor)\n");
    return 1;
  }
  std::printf("simd-check: every kernel >= 2x over forced scalar\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--simd-check") return run_simd_check();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
