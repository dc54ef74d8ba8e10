#!/usr/bin/env bash
# CI driver: builds and runs the tier-1 ctest suite in three configurations —
# a plain RelWithDebInfo build (plus the bench_throughput JSON/tau/overlap,
# bench_server async-burst, bench_vault replay-ledger/purge/bytes-per-
# session, bench_cluster chaos-ledger and bench_grants offline-window
# ledger gates; bench_throughput and
# bench_server run twice, the second time pinned to one CPU), a
# WAVEKEY_SANITIZE=ON (ASan + UBSan) build, and a WAVEKEY_TSAN=ON
# (ThreadSanitizer) build scoped to the concurrency suites — so every merge
# exercises correctness, memory/UB cleanliness, and data-race freedom. A
# fourth Release (-O3) leg runs the TrainingDeterminism goldens, then
# bench_micro, and gates the hot-path kernels
# against the committed BENCH_micro.json baseline via tools/bench_compare.py
# (anchor-normalized, so it tolerates uniformly slower machines but trips on
# relative kernel regressions > 15%), then runs `bench_micro --simd-check`
# (the AVX2 GEMM kernel >= 2x over forced scalar on AVX2 hosts). The plain leg
# additionally re-runs the differential kernel suites with
# WAVEKEY_SIMD=scalar to pin dispatch to the scalar tier.
#
# Usage: tools/ci.sh [--plain-only|--sanitize-only|--tsan-only|--perf-only]
# Environment: WAVEKEY_CI_JOBS (parallelism, default nproc),
#              WAVEKEY_BENCH_SCALE is consumed only by the throughput and
#              vault gates (fixed at 0.25 there); tests do not read it.

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${WAVEKEY_CI_JOBS:-$(nproc)}"
MODE="${1:-all}"

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
  # assertion under this environment.
  echo "=== [plain] forced-scalar ctest (WAVEKEY_SIMD=scalar) ==="
  WAVEKEY_SIMD=scalar ctest --test-dir build-ci --output-on-failure -j "$JOBS" \
    -R 'KernelEquivalence|TensorArena|CpuDispatch|GemmSimd|simd_test'
}

check_throughput_json() {
  # The bench itself exits non-zero on any failed session, tau violation or
  # sub-2.5x I/O overlap factor; the python pass additionally rejects
  # malformed JSON and re-checks the p99 critical-message latency against
  # the tau budget and the overlap factor point by point.
  python3 - "$1" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
tau = data["tau_budget_ms"]
points = data["points"]
assert points, "bench_throughput emitted no points"
for p in points:
    assert p["p99_critical_ms"] <= tau, (
        f"p99 critical latency {p['p99_critical_ms']} ms exceeds the "
        f"tau budget {tau} ms at {p['threads']} threads")
    # Radio waits park in the event loop's timer wheel, so they overlap at
    # every thread count; thread scaling (speedup_4t_over_1t) is CPU scaling
    # and is reported, not gated. Same rule as server_gate's io_overlap.
    if data["radio_wait_ms"] > 0:
        assert p["io_overlap"] >= 2.5, (
            f"I/O overlap factor {p['io_overlap']:.2f} < 2.5 at "
            f"{p['threads']} threads — radio waits are serializing")
assert data["tau_deadline_violations"] == 0, "tau deadline violations detected"
print(f"bench_throughput ok: io_overlap={[p['io_overlap'] for p in points]}, "
      f"speedup_4t_over_1t={data['speedup_4t_over_1t']}, "
      f"tau violations=0, {len(points)} points")
PYEOF
}

throughput_gate() {
  echo "=== [plain] bench_throughput gate ==="
  WAVEKEY_BENCH_SCALE=0.25 ./build-ci/bench/bench_throughput \
    > build-ci/bench_throughput.json
  check_throughput_json build-ci/bench_throughput.json
}

check_server_json() {
  # bench_server exits non-zero on any broken ledger, accepted replay, tau
  # violation, missing shed, or sub-2.5x I/O overlap factor; the python pass
  # re-checks the security-critical invariants from the JSON itself so a
  # silently-wrong exit path cannot mask them, and additionally requires
  # every rejection class to have actually fired (the bench injects each
  # deterministically, so a zero means the check is dead code).
  python3 - "$1" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
points = data["points"]
assert points, "bench_server emitted no points"
for p in points:
    assert p["ledger_ok"], f"outcome ledger mismatch at {p['threads']} threads"
    assert p["accepted_replays"] == 0, f"replay accepted at {p['threads']} threads"
    assert p["shed"] == 0 and p["malformed"] == 0, "unexpected shed/malformed in soak"
    for key in ("replay_rejected", "expired", "revoked", "stale_epoch",
                "bad_mac", "rate_limited"):
        assert p[key] > 0, f"rejection class {key} never fired at {p['threads']} threads"
assert data["accepted_replays"] == 0, "accepted replays detected"
assert data["tau_deadline_violations"] == 0, "tau deadline violations detected"
assert data["shed_burst"]["shed"] >= 1, "overload burst did not shed"
# Coroutine serving overlaps I/O waits at EVERY thread count (they park in
# the timer wheel, not on a worker thread), so grants/sec no longer scales
# with threads: the old 4t/1t speedup gate is structurally obsolete. The
# replacement gate is the per-point I/O overlap factor — granted * io_wait
# / wall — which measures how many waits were genuinely in flight at once.
overlaps = []
for p in points:
    assert "p999_verify_us" in p, f"p99.9 missing at {p['threads']} threads"
    if data["io_wait_ms"] > 0:
        assert p["io_overlap"] >= 2.5, (
            f"I/O overlap factor {p['io_overlap']:.2f} < 2.5 at "
            f"{p['threads']} threads — waits are serializing")
        overlaps.append(p["io_overlap"])
print(f"bench_server ok: io_overlap={[round(o, 1) for o in overlaps]}, "
      f"accepted_replays=0, tau violations=0, {len(points)} points")
PYEOF
}

server_gate() {
  echo "=== [plain] bench_server gate ==="
  WAVEKEY_BENCH_SCALE=0.25 ./build-ci/bench/bench_server \
    > build-ci/bench_server.json
  check_server_json build-ci/bench_server.json
}

one_cpu_gate() {
  # The serving benches again with the whole process pinned to one CPU: the
  # event loop picks its scheduling mode from the affinity mask it is built
  # under (no spare CPU, no spinning), so this leg runs the park-only path
  # under the same assertions as the unpinned runs above. Each JSON must
  # also report the one CPU it ran on (`hardware_threads` reads the
  # affinity mask).
  echo "=== [plain] 1-CPU serving gate (taskset -c 0) ==="
  WAVEKEY_BENCH_SCALE=0.25 taskset -c 0 ./build-ci/bench/bench_throughput \
    > build-ci/bench_throughput.1cpu.json
  check_throughput_json build-ci/bench_throughput.1cpu.json
  WAVEKEY_BENCH_SCALE=0.25 taskset -c 0 ./build-ci/bench/bench_server \
    > build-ci/bench_server.1cpu.json
  check_server_json build-ci/bench_server.1cpu.json
  python3 - build-ci/bench_throughput.1cpu.json build-ci/bench_server.1cpu.json <<'PYEOF'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        cpus = json.load(f)["hardware_threads"]
    assert cpus == 1, f"{path}: hardware_threads={cpus} under taskset -c 0, expected 1"
print("1-CPU runs report hardware_threads=1")
PYEOF
}

async_gate() {
  # Re-derives the async serving-core claims (DESIGN.md §12) from the JSON
  # that server_gate already emitted, independently of the bench's own exit
  # code: the coroutine burst must genuinely hold >= 10k grants in flight
  # (and suspended) on 4 threads with nothing shed and the exactly-once
  # ledger intact. Finally the latency percentiles of
  # the fresh bench_server run are diffed against the committed
  # BENCH_server.json via bench_compare --latency: tail amplification
  # (p99/p99.9 over p50 within the same run) is machine-speed-independent,
  # and the generous 9.0 threshold is a tripwire for order-of-magnitude
  # regressions — a blocking wait reappearing on the verify path, not noise.
  echo "=== [plain] async serving gate ==="
  python3 - build-ci/bench_server.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    server = json.load(f)
burst = server["async_burst"]
assert burst["threads"] == 4, f"async burst ran on {burst['threads']} threads, not 4"
assert burst["peak_in_flight"] >= 10000, (
    f"peak in-flight {burst['peak_in_flight']} < 10000 — coroutines are not overlapping")
assert burst["peak_suspended"] >= 10000, (
    f"peak suspended {burst['peak_suspended']} < 10000 — waits are not parking")
assert burst["granted"] == burst["submitted"], (
    f"async burst lost grants: {burst['granted']}/{burst['submitted']}")
assert burst["shed"] == 0, f"async burst shed {burst['shed']} requests"
assert burst["p999_verify_us"] > 0, "async burst p99.9 missing"
print(f"async_gate ok: peak_in_flight={burst['peak_in_flight']}, "
      f"peak_suspended={burst['peak_suspended']}, wall={burst['wall_s']}s, "
      f"p999_verify={burst['p999_verify_us']}us")
PYEOF
  echo "=== [plain] latency percentile diff vs BENCH_server.json ==="
  tools/bench_compare.py --latency --threshold 9.0 \
    BENCH_server.json build-ci/bench_server.json
}

vault_gate() {
  # bench_vault exits non-zero on any ledger mismatch, accepted replay,
  # double grant, purge shortfall, or authorize failure; the python pass
  # re-derives those claims from the JSON so a broken exit path cannot mask
  # them: zero accepted replays and zero authorize failures at every point,
  # exact rejection ledgers, complete wheel purges, and a bytes/session
  # memory bound on the FlatMap store. Authorize throughput is reported, not
  # gated.
  echo "=== [plain] bench_vault gate ==="
  WAVEKEY_BENCH_SCALE=0.25 ./build-ci/bench/bench_vault \
    > build-ci/bench_vault.json
  python3 - build-ci/bench_vault.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
assert data["all_ok"], "bench_vault reported a failed invariant"
points = data["points"]
assert points, "bench_vault emitted no points"
for p in points:
    led = p["ledger"]
    assert led["ledger_ok"], f"rejection ledger mismatch at {p['sessions']} sessions"
    assert led["accepted_replays"] == 0, f"accepted replay at {p['sessions']} sessions"
    assert led["authorize_failures"] == 0, f"authorize failures at {p['sessions']} sessions"
    n = led["probes_per_class"]
    for cls in ("replay_rejected", "bad_mac", "stale_epoch", "unknown", "expired"):
        assert led[cls] == n, (
            f"{cls}={led[cls]} != {n} probes at {p['sessions']} sessions")
    purge = p["purge"]
    assert purge["purged"] == purge["installed"], (
        f"wheel purge reclaimed {purge['purged']}/{purge['installed']} "
        f"at {p['sessions']} sessions")
    assert p["flatmap_bytes_per_session"] <= 320.0, (
        f"FlatMap store {p['flatmap_bytes_per_session']:.0f} B/session > 320 "
        f"at {p['sessions']} sessions")
largest = max(points, key=lambda p: p["sessions"])
rates = {t["threads"]: t["flatmap_grants_per_sec"] for t in largest["threads"]}
print(f"bench_vault ok: accepted_replays=0, exact ledgers and purges at "
      f"{len(points)} points; authorize {rates} grants/s by threads "
      f"at {largest['sessions']} sessions")
PYEOF
}

cluster_gate() {
  # bench_cluster drives gateway fleets against the partitioned vault
  # cluster through a lossy WAN model while injecting a crash (with
  # failover) and a graceful drain mid-traffic, and exits non-zero if any
  # ledger gate fails. The python pass re-derives the security invariants
  # from the emitted JSON — zero accepted replays, zero double-grants,
  # zero unresolved in-flight requests, every rejection class actually
  # fired, each chaos event ran — so a broken exit path cannot mask them.
  echo "=== [plain] bench_cluster gate ==="
  ./build-ci/bench/bench_cluster > build-ci/bench_cluster.json
  python3 - build-ci/bench_cluster.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
assert data["accepted_replays"] == 0, "cluster accepted a replay"
assert data["double_grants"] == 0, "cluster double-granted a request"
assert data["unresolved_in_flight"] == 0, "in-flight request never resolved"
assert data["wellformed_success"] >= 0.95, (
    f"well-formed success {data['wellformed_success']} < 0.95")
for flag in ("probe_ledger_ok", "window_ledger_ok", "reopened_ledger_ok",
             "blackhole_ledger_ok", "chaos_typed_ok", "grants_accounted",
             "chaos_ran", "success_ok", "resolved_ok"):
    assert data[flag], f"bench_cluster gate {flag} failed"
phases = data["phases"]
assert phases["probes"]["replay"] > 0, "replay probes never fired"
assert phases["probes"]["bad_mac"] > 0, "bad-MAC probes never fired"
assert phases["probes"]["malformed"] > 0, "malformed probes never fired"
assert phases["crash_window"]["unavailable"] > 0, "crash window saw no kUnavailable"
assert phases["post_failover_replay"]["replay"] > 0, "post-failover replays not rejected"
assert phases["blackhole"]["retry_exhausted"] > 0, "blackhole saw no kRetryExhausted"
cluster = data["cluster"]
assert cluster["crashes"] == 1 and cluster["drains"] == 1 and cluster["failovers"] == 1, \
    "chaos events did not all run"
assert cluster["sessions_migrated"] > 0, "handoff migrated no sessions"
print(f"bench_cluster ok: executed={cluster['executed']}, "
      f"grants={cluster['vault_grants']}, dedup_hits={cluster['dedup_hits']}, "
      f"migrated={cluster['sessions_migrated']}, accepted_replays=0, "
      f"double_grants=0, success={data['wellformed_success']}")
PYEOF
}

grants_gate() {
  # bench_grants soaks the offline-grant subsystem through a full
  # reachable -> partitioned -> healed cycle and exits non-zero on any
  # ledger miss; the python pass re-derives the closed-form ledger from the
  # emitted JSON so a broken exit path cannot mask it: every pre-issued
  # token accepted vault-free during the partition, each rejection class
  # fired with its exact typed count, zero cluster executions while
  # blackholed, zero accepted after revocation propagates on heal, and
  # both audit chains verifying end-to-end with exactly one record per
  # event (the tamper probe must have pinpointed its injected index).
  echo "=== [plain] bench_grants gate ==="
  ./build-ci/bench/bench_grants > build-ci/bench_grants.json
  python3 - build-ci/bench_grants.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
for flag in ("reachable_ledger_ok", "crosslink_ok", "partitioned_ledger_ok",
             "vault_free_ok", "sibling_scoping_ok", "revoked_ledger_ok",
             "healed_ledger_ok", "verifier_chain_ok", "tamper_ok",
             "issuer_chain_ok"):
    assert data[flag], f"bench_grants gate {flag} failed"
ph = data["phases"]
reach, part, heal = ph["reachable"], ph["partitioned"], ph["healed"]
for name, p in ph.items():
    assert p["resolved"] == p["submitted"], f"{name}: unresolved submissions"
assert reach["granted"] == reach["submitted"], "reachable phase lost grants"
assert part["granted"] == data["offline_grants"] + data["handoff_grants"], \
    "partitioned phase accepted the wrong number of offline grants"
assert part["offline"] == part["resolved"] - part["retry_exhausted"], \
    "some partitioned resolutions bypassed the offline verifier"
for cls in ("replay", "rollback", "bad_mac", "expired", "wrong_scope",
            "unknown", "malformed", "retry_exhausted"):
    assert part[cls] > 0, f"rejection class {cls} never fired during the partition"
assert heal["granted"] == heal["submitted"], "healed phase lost grants"
audit = data["audit"]
assert audit["pinpointed"] == audit["tampered_index"], \
    "audit fsck did not pinpoint the tampered record"
assert data["revoked_refused"] > 0, "revocation propagation never refused a token"
assert data["revoked_refused"] == data["revoked_tokens"], \
    "a revoked-tag token was accepted after the heal-time re-provisioning"
print(f"bench_grants ok: offline_granted={part['granted']}, "
      f"typed_rejections={part['resolved'] - part['granted']}, "
      f"verifier_records={audit['verifier_records']}, "
      f"issuer_records={audit['issuer_records']}, "
      f"tamper pinpointed at {audit['pinpointed']}")
PYEOF
}

perf_gate() {
  # Release (-O3) leg: measure the gated hot-path benchmarks and compare
  # against the committed baseline. Shared hosts drift through multi-minute
  # slow phases that hit cache-sensitive kernels non-uniformly (so the
  # anchor cannot cancel them); three disciplines keep the gate meaningful
  # anyway: random interleaving spreads each benchmark's repetitions across
  # time windows, bench_compare takes the min over repetitions, and on a
  # failed comparison the measurement is repeated (up to 3 attempts) with
  # attempts min-merged — a genuine code regression can never pass a
  # re-measure, while a noisy host eventually lands a quiet window.
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
  rm -f build-ci-release/bench_micro.json
  local attempt
  for attempt in 1 2 3; do
    ./build-ci-release/bench/bench_micro \
      --benchmark_format=json \
      --benchmark_repetitions=3 \
      --benchmark_min_time=0.05 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_filter='BM_Sha256_1KiB|BM_Fe25519_Pow|BM_Fe25519_GeneratorPow|BM_Fe25519_Square|BM_Fe25519_Inverse|BM_OtInstance|BM_OtSenderEncrypt|BM_ImuEncoderInference|BM_Conv1dForward|BM_DenseForward|BM_RsEncode|BM_GemmF32|BM_ClusterFrame|BM_PartitionMapRoute|BM_EventLoopSpawn|BM_FlatMapProbe|BM_VaultAuthorizeHot|BM_KdfDerive|BM_GrantIssue|BM_GrantVerifyOffline|BM_AuditAppend' \
      > "build-ci-release/bench_micro.attempt${attempt}.json"
    python3 - build-ci-release/bench_micro.json \
      "build-ci-release/bench_micro.attempt${attempt}.json" <<'PYEOF'
import json, os, sys
dst, src = sys.argv[1], sys.argv[2]
cur = json.load(open(src))
if os.path.exists(dst):
    best = {}
    for doc in (json.load(open(dst)), cur):
        for b in doc["benchmarks"]:
            if b.get("run_type", "iteration") != "iteration":
                continue
            k = b["name"]
            if k not in best or b["real_time"] < best[k]["real_time"]:
                best[k] = b
    cur = {"context": cur["context"],
           "benchmarks": sorted(best.values(), key=lambda b: b["name"])}
json.dump(cur, open(dst, "w"), indent=1)
PYEOF
    if tools/bench_compare.py BENCH_micro.json build-ci-release/bench_micro.json; then
      break
    elif [ "$attempt" = 3 ]; then
      echo "perf gate: regression persists after ${attempt} min-merged attempts" >&2
      exit 1
    else
      echo "perf gate: attempt ${attempt} over threshold; re-measuring (min-merge)" >&2
    fi
  done
  # On AVX2 hosts, assert the AVX2 GEMM kernel actually pays for its
  # complexity: >= 2x over the forced-scalar tier (no-op elsewhere).
  echo "=== [perf] bench_micro --simd-check ==="
  ./build-ci-release/bench/bench_micro --simd-check
}

case "$MODE" in
  --sanitize-only|--tsan-only|--perf-only) ;;
  *)
    run_suite plain build-ci
    forced_scalar_gate
    throughput_gate
    server_gate
    one_cpu_gate
    vault_gate
    cluster_gate
    async_gate
    grants_gate
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
               grants_test event_loop_test flat_map_test
    echo "=== [tsan] ctest (concurrency suites) ==="
    ctest --test-dir build-ci-tsan --output-on-failure -j "$JOBS" \
      -R 'PairingEngine|TrainingDeterminism|KernelEquivalence|TensorArena|KeyVault|AccessServer|ReplayWindow|TokenBucket|TenantLimiter|AccessProtocol|MalformedInputFuzz|PartitionMap|ClusterWire|ClusterFuzz|VaultCluster|ReaderGateway|EventLoop|TimerWheel|AdmissionWindow|TaskCoroutine|FlatMap|KdfTree|CounterAdvance|GrantToken|GrantFuzz|OfflineVerifier|GrantIssuer|AuditLog|ClusterAudit|GatewayOffline'
    ;;
esac

case "$MODE" in
  --sanitize-only|--tsan-only) ;;
  *)
    perf_gate
    ;;
esac

echo "=== CI ok ==="
