#!/usr/bin/env bash
# CI driver: builds and runs the tier-1 ctest suite in three configurations —
# a plain RelWithDebInfo build with warnings as errors (WAVEKEY_WERROR=ON),
# a WAVEKEY_SANITIZE=ON (ASan + UBSan) build,
# and a WAVEKEY_TSAN=ON (ThreadSanitizer) build scoped to the concurrency
# suites — so every merge exercises correctness, memory/UB cleanliness, and
# data-race freedom. The plain leg also runs the serving benches
# (bench_throughput, bench_server, bench_vault, bench_cluster, bench_grants;
# the first two again pinned to one CPU) and bench_reliability, each gated
# by its own exit code, and re-runs the differential kernel suites with
# WAVEKEY_SIMD=scalar to pin dispatch to the scalar tier. A fourth Release
# (-O3) leg runs the TrainingDeterminism goldens, then bench_micro, and
# gates the hot-path kernels against the committed BENCH_micro.json baseline via
# tools/bench_compare.py (anchor-normalized, so it tolerates uniformly slower
# machines but trips on relative kernel regressions > 15%), then runs
# `bench_micro --simd-check` (the AVX2 GEMM kernel and, on AVX-512 IFMA
# hosts, the batched exponentiation >= 2x over forced scalar).
#
# Usage: tools/ci.sh [--plain-only|--sanitize-only|--tsan-only|--perf-only]
#        (no argument runs all four legs; anything else exits 2)
# Environment: WAVEKEY_CI_JOBS (parallelism, default nproc).
#              WAVEKEY_BENCH_SCALE is set to 0.25 for the throughput, server,
#              vault and reliability gates; tests do not read it.

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${WAVEKEY_CI_JOBS:-$(nproc)}"
MODE="${1:-all}"
case "$MODE" in
  all|--plain-only|--sanitize-only|--tsan-only|--perf-only) ;;
  *)
    echo "usage: tools/ci.sh [--plain-only|--sanitize-only|--tsan-only|--perf-only]" >&2
    exit 2
    ;;
esac

run_suite() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$name] ctest ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

forced_scalar_gate() {
  # Re-runs the differential kernel suites with SIMD dispatch pinned to the
  # scalar tier (WAVEKEY_SIMD=scalar): proves the scalar twins are complete
  # oracles on their own and that the override is honored end to end. The
  # CpuDispatch.ForcedScalarPinsTier test turns from a skip into a hard
  # assertion under this environment. The OT suites (pinned transcript,
  # agreement, pad exchange, OT phases) rerun with every pow_batch on the scalar pow.
  echo "=== [plain] forced-scalar ctest (WAVEKEY_SIMD=scalar) ==="
  WAVEKEY_SIMD=scalar ctest --test-dir build-ci --output-on-failure -j "$JOBS" \
    -R 'KernelEquivalence|TensorArena|CpuDispatch|GemmSimd|simd_test|TranscriptGoldenTest|AgreementTest|PadExchangeTest|ObliviousTransferTest'
}

# The serving benches' legs. Each bench's exit code is its whole gate: the
# binary checks its own closed-form ledger (DESIGN.md §9.4, §10, §12–§14),
# names every miss on stderr and exits non-zero, and `set -e` stops CI at
# that leg. The JSON is kept under build-ci/ for reading, not re-checked.

throughput_gate() {
  echo "=== [plain] bench_throughput gate ==="
  WAVEKEY_BENCH_SCALE=0.25 ./build-ci/bench/bench_throughput \
    > build-ci/bench_throughput.json
}

server_gate() {
  echo "=== [plain] bench_server gate ==="
  WAVEKEY_BENCH_SCALE=0.25 ./build-ci/bench/bench_server \
    > build-ci/bench_server.json
  # Tail amplification (p99/p99.9 over p50 within the same run) against the
  # committed BENCH_server.json is machine-speed-independent; the generous
  # 9.0 threshold is a tripwire for order-of-magnitude regressions — a
  # blocking wait reappearing on the verify path, not noise.
  echo "=== [plain] latency percentile diff vs BENCH_server.json ==="
  tools/bench_compare.py --latency --threshold 9.0 \
    BENCH_server.json build-ci/bench_server.json
}

one_cpu_gate() {
  # The serving benches again with the whole process pinned to one CPU: the
  # event loop picks its scheduling mode from the affinity mask it is built
  # under (no spare CPU, no spinning), so this leg runs the park-only path
  # under the same assertions as the unpinned runs above.
  # EventLoop.SingleCpuAffinityNeverSpins checks that a pinned thread sees
  # one usable CPU.
  echo "=== [plain] 1-CPU serving gate (taskset -c 0) ==="
  WAVEKEY_BENCH_SCALE=0.25 taskset -c 0 ./build-ci/bench/bench_throughput \
    > build-ci/bench_throughput.1cpu.json
  WAVEKEY_BENCH_SCALE=0.25 taskset -c 0 ./build-ci/bench/bench_server \
    > build-ci/bench_server.1cpu.json
}

vault_gate() {
  echo "=== [plain] bench_vault gate ==="
  WAVEKEY_BENCH_SCALE=0.25 ./build-ci/bench/bench_vault > build-ci/bench_vault.json
}

cluster_gate() {
  echo "=== [plain] bench_cluster gate ==="
  ./build-ci/bench/bench_cluster > build-ci/bench_cluster.json
}

grants_gate() {
  echo "=== [plain] bench_grants gate ==="
  ./build-ci/bench/bench_grants > build-ci/bench_grants.json
}

reliability_gate() {
  # The one bench that drives the session over a lossy link: M_A's
  # retransmissions inside the gesture window and the deadline fail-fast of
  # both M_B messages. It exits non-zero unless ARQ success >= single-shot
  # at every loss/jitter point and no success broke the tau deadline.
  echo "=== [plain] bench_reliability gate ==="
  WAVEKEY_BENCH_SCALE=0.25 ./build-ci/bench/bench_reliability \
    > build-ci/bench_reliability.json
}

perf_gate() {
  # Release (-O3) leg: measure the gated hot-path benchmarks and compare
  # against the committed baseline. Shared hosts drift through multi-minute
  # slow phases that hit cache-sensitive kernels non-uniformly (so the
  # anchor cannot cancel them); three disciplines keep the gate meaningful
  # anyway: random interleaving spreads each benchmark's repetitions across
  # time windows, bench_compare takes the min over repetitions, and on a
  # failed comparison the measurement is repeated (up to 3 attempts) and
  # bench_compare folds all attempts so far into their per-row minimum — a
  # genuine code regression can never pass a re-measure, while a noisy host
  # eventually lands a quiet window.
  echo "=== [perf] configure ==="
  cmake -B build-ci-release -S . -DCMAKE_BUILD_TYPE=Release
  echo "=== [perf] build bench_micro, pairing_engine_test ==="
  cmake --build build-ci-release -j "$JOBS" --target bench_micro pairing_engine_test
  # The training goldens must hold at -O3 too, not only in the tier-1
  # RelWithDebInfo build: the optimization level must not move the AVX2
  # digest (src/nn/CMakeLists.txt builds that TU with -ffp-contract=off).
  echo "=== [perf] TrainingDeterminism at -O3 ==="
  ./build-ci-release/tests/pairing_engine_test --gtest_filter='TrainingDeterminism.*'
  echo "=== [perf] bench_micro vs BENCH_micro.json ==="
  local attempt attempts=()
  for attempt in 1 2 3; do
    attempts+=("build-ci-release/bench_micro.attempt${attempt}.json")
    ./build-ci-release/bench/bench_micro \
      --benchmark_format=json \
      --benchmark_repetitions=3 \
      --benchmark_min_time=0.05 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_filter='BM_Sha256_1KiB|BM_Fe25519_Pow|BM_Fe25519_PowBatch96|BM_Fe25519_Square|BM_OtPrecompute48|BM_OtCipherMessage96|BM_OtReceivePads96|BM_ImuEncoderInference|BM_Conv1dForward|BM_DenseForward|BM_RsEncode|BM_GemmF32|BM_ClusterFrame|BM_PartitionMapRoute|BM_EventLoopSpawn|BM_FlatMapProbe|BM_VaultAuthorizeHot|BM_KdfDerive|BM_GrantIssue|BM_GrantVerifyOffline|BM_AuditAppend' \
      > "${attempts[-1]}"
    if tools/bench_compare.py BENCH_micro.json "${attempts[@]}"; then
      break
    elif [ "$attempt" = 3 ]; then
      echo "perf gate: regression persists after ${attempt} min-merged attempts" >&2
      exit 1
    else
      echo "perf gate: attempt ${attempt} over threshold; re-measuring (min-merge)" >&2
    fi
  done
  # Assert each vector kernel pays for its complexity: >= 2x over the
  # forced-scalar tier for the AVX2 GEMM and, on AVX-512 IFMA hosts, for
  # the 96-lane pow_batch (no-op on hosts without the extension).
  echo "=== [perf] bench_micro --simd-check ==="
  ./build-ci-release/bench/bench_micro --simd-check
}

case "$MODE" in
  --sanitize-only|--tsan-only|--perf-only) ;;
  *)
    run_suite plain build-ci -DWAVEKEY_WERROR=ON
    forced_scalar_gate
    throughput_gate
    server_gate
    one_cpu_gate
    vault_gate
    cluster_gate
    grants_gate
    reliability_gate
    ;;
esac

case "$MODE" in
  --plain-only|--tsan-only|--perf-only) ;;
  *)
    # UBSan aborts on any finding (-fno-sanitize-recover=all); ASan halts on
    # the first error by default, which is exactly what CI wants.
    ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
      run_suite sanitize build-ci-sanitize -DWAVEKEY_SANITIZE=ON
    ;;
esac

case "$MODE" in
  --plain-only|--sanitize-only|--perf-only) ;;
  *)
    # TSan is scoped to the concurrency suites (pairing engine + event
    # loop + access server + vault cluster/gateway) plus the
    # kernel-equivalence suite, which checks the GEMM kernels and the
    # per-thread tensor arena: that is where the
    # shared mutable state lives, and the 5-15x TSan slowdown makes the
    # full training suite impractical in CI.
    echo "=== [tsan] configure ==="
    cmake -B build-ci-tsan -S . -DWAVEKEY_TSAN=ON
    echo "=== [tsan] build ==="
    cmake --build build-ci-tsan -j "$JOBS" \
      --target pairing_engine_test kernel_equiv_test server_test cluster_test \
               grants_test event_loop_test flat_map_test access_exchange_test
    echo "=== [tsan] ctest (concurrency suites) ==="
    ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
      -R 'PairingEngine|TrainingDeterminism|KernelEquivalence|TensorArena|KeyVault|AccessServer|AccessExchange|ReplayWindow|TokenBucket|TenantLimiter|AccessProtocol|MalformedInputFuzz|PartitionMap|ClusterWire|ClusterFuzz|VaultCluster|ReaderGateway|EventLoop|TimerWheel|AdmissionWindow|TaskCoroutine|FlatMap|KdfTree|CounterAdvance|GrantToken|GrantFuzz|OfflineVerifier|GrantIssuer|AuditLog|ClusterAudit|GatewayOffline'
    ;;
esac

case "$MODE" in
  --sanitize-only|--tsan-only) ;;
  *)
    perf_gate
    ;;
esac

echo "=== CI ok ==="
