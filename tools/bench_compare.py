#!/usr/bin/env python3
"""Compare a bench_micro JSON run against the committed baseline.

Guards the hot-path kernels against performance regressions in CI:

    bench_micro --benchmark_format=json ... > current.json
    tools/bench_compare.py BENCH_micro.json current.json [more.json ...]

Exit status is 1 if any gated benchmark slowed down by more than the
threshold (default 15%). To stay meaningful across machines, every time is
normalized by the anchor benchmark (BM_Sha256_1KiB): a host that is
uniformly 2x slower than the baseline machine shifts the anchor by the same
factor and cancels out; only *relative* kernel regressions trip the gate.
Each benchmark's time is its minimum over every repetition in every current
file, so several measurement attempts fold into one comparison.

A second mode diffs serving-latency percentiles instead of ops-rate
anchors: `--latency` takes two bench_server / bench_throughput style JSONs
(anything with a "points" array carrying p50/p95/p99/p99.9 fields) and
compares TAIL AMPLIFICATION — each percentile normalized by the lowest
percentile of its own family in the same run — so absolute machine speed
cancels and only tail-shape regressions (a blocking wait sneaking back into
the request path, a lock convoy) trip the gate. The default --threshold in
this mode is 3.0 (4x amplification growth): a deliberate tripwire for
order-of-magnitude regressions, not a noise-sensitive 15% gate.

Stdlib only — no third-party dependencies.
"""

import argparse
import json
import re
import sys

ANCHOR = "BM_Sha256_1KiB"

# Benchmarks the gate protects. Names absent from either file are reported
# and skipped (so adding a new benchmark does not break older baselines),
# but a missing anchor is a hard error.
GATED = [
    "BM_Fe25519_Pow",
    "BM_Fe25519_PowBatch96",
    "BM_OtCipherMessage96",
    "BM_ImuEncoderInference",
    "BM_Conv1dForward",
    "BM_DenseForward",
    "BM_RsEncode",
    "BM_GemmF32",
    "BM_ClusterFrame",
    "BM_PartitionMapRoute",
    "BM_EventLoopSpawn",
    "BM_FlatMapProbe",
    "BM_VaultAuthorizeHot",
    "BM_KdfDerive",
    "BM_GrantIssue",
    "BM_GrantVerifyOffline",
    "BM_AuditAppend",
]

# Matches latency-percentile point fields: p50_verify_us, p999_critical_ms...
PERCENTILE_KEY = re.compile(r"^p(\d+)_(.+)_(us|ms)$")


def load_latency_points(path):
    """Returns {point label: {family: {percentile: microseconds}}}."""
    with open(path) as f:
        doc = json.load(f)
    points = {}
    for point in doc.get("points", []):
        label = f"threads={point.get('threads', '?')}"
        families = {}
        for key, value in point.items():
            m = PERCENTILE_KEY.match(key)
            if m is None or not isinstance(value, (int, float)):
                continue
            # 'p999' means p99.9: interpret the digit string as a percentile
            # with an implied decimal point after the first two digits.
            digits = m.group(1)
            pct = float(digits) if len(digits) <= 2 else float(digits[:2] + "." + digits[2:])
            us = float(value) * (1e3 if m.group(3) == "ms" else 1.0)
            families.setdefault(m.group(2), {})[pct] = us
        if families:
            points[label] = families
    return points


def compare_latency(args):
    base = load_latency_points(args.baseline)
    cur = load_latency_points(args.current[0])
    if not base or not cur:
        print("bench_compare: no latency percentiles found in baseline or current",
              file=sys.stderr)
        return 1

    failed = []
    compared = 0
    # Walk the union of labels so a point present on only one side is
    # reported as a SKIP instead of silently ignored (or a KeyError when the
    # baseline predates a newly added point).
    for label in sorted(set(base) | set(cur)):
        if label not in cur:
            print(f"{label}: SKIP (missing from current run)")
            continue
        if label not in base:
            print(f"{label}: SKIP (not in baseline; refresh the committed JSON)")
            continue
        base_families = base[label]
        for family, base_pcts in sorted(base_families.items()):
            cur_pcts = cur[label].get(family, {})
            shared = sorted(set(base_pcts) & set(cur_pcts))
            if len(shared) < 2:
                continue
            floor = shared[0]  # lowest shared percentile anchors the family
            for pct in shared[1:]:
                base_amp = base_pcts[pct] / base_pcts[floor] if base_pcts[floor] > 0 else 0.0
                cur_amp = cur_pcts[pct] / cur_pcts[floor] if cur_pcts[floor] > 0 else 0.0
                if base_amp <= 0.0:
                    continue
                compared += 1
                ratio = cur_amp / base_amp
                verdict = "ok"
                if ratio > 1.0 + args.threshold:
                    verdict = "REGRESSION"
                    failed.append(f"{label} {family} p{pct:g} "
                                  f"(x{base_amp:.1f} -> x{cur_amp:.1f})")
                print(f"  {label:<12} {family:<12} p{pct:<5g} base {base_pcts[pct]:>10.1f} us "
                      f"(x{base_amp:5.1f} over p{floor:g})  cur {cur_pcts[pct]:>10.1f} us "
                      f"(x{cur_amp:5.1f})  tail ratio x{ratio:.2f}  {verdict}")

    if compared == 0:
        print("bench_compare: no comparable percentile pairs (need >= 2 shared "
              "percentiles per family)", file=sys.stderr)
        return 1
    if failed:
        print(f"bench_compare: {len(failed)} tail percentile(s) regressed more than "
              f"{args.threshold:.0%} in amplification: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"bench_compare: all {compared} tail percentiles within threshold")
    return 0


def load_times(*paths):
    """Returns {benchmark name: min real_time in ns} over all repetitions of
    all files."""
    entries = []
    for path in paths:
        with open(path) as f:
            entries += json.load(f).get("benchmarks", [])
    times = {}
    for entry in entries:
        # Skip aggregate rows (mean/median/stddev); keep per-repetition ones.
        if entry.get("run_type", "iteration") != "iteration":
            continue
        name = entry["name"]
        t = float(entry["real_time"])
        unit = entry.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        t *= scale
        if name not in times or t < times[name]:
            times[name] = t
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed baseline JSON (BENCH_micro.json)")
    ap.add_argument("current", nargs="+",
                    help="freshly measured JSON; several files (repeated attempts) "
                         "fold into their per-benchmark minimum")
    ap.add_argument("--latency", action="store_true",
                    help="diff latency percentiles (bench_server/bench_throughput "
                         "JSONs) instead of ops-rate anchors")
    ap.add_argument("--threshold", type=float, default=None,
                    help="allowed fractional slowdown after normalization "
                         "(default 0.15; 3.0 in --latency mode)")
    args = ap.parse_args()

    if args.threshold is None:
        args.threshold = 3.0 if args.latency else 0.15
    if args.latency:
        if len(args.current) != 1:
            ap.error("--latency compares exactly one current JSON")
        return compare_latency(args)

    base = load_times(args.baseline)
    cur = load_times(*args.current)

    if ANCHOR not in base or ANCHOR not in cur:
        print(f"bench_compare: anchor {ANCHOR} missing from baseline or current run",
              file=sys.stderr)
        return 1
    anchor_ratio = cur[ANCHOR] / base[ANCHOR]
    print(f"anchor {ANCHOR}: baseline {base[ANCHOR]:.0f} ns, current {cur[ANCHOR]:.0f} ns "
          f"(machine factor {anchor_ratio:.3f})")

    failed = []
    for name in GATED:
        if name not in base:
            # A benchmark the baseline predates: report it so the baseline
            # gets refreshed, but do not fail — new benchmarks must be
            # landable against older committed baselines.
            cur_note = f"cur {cur[name]:.0f} ns" if name in cur else "not measured"
            print(f"  {name:<28} NEW (not in baseline; {cur_note})")
            continue
        if name not in cur:
            print(f"  {name:<28} SKIP (missing from current run)")
            continue
        normalized = (cur[name] / base[name]) / anchor_ratio
        verdict = "ok"
        if normalized > 1.0 + args.threshold:
            verdict = "REGRESSION"
            failed.append(f"{name} (committed {base[name]:.0f} ns, measured "
                          f"{cur[name]:.0f} ns, x{normalized:.3f} normalized)")
        print(f"  {name:<28} base {base[name]:>12.0f} ns  cur {cur[name]:>12.0f} ns  "
              f"normalized x{normalized:.3f}  {verdict}")

    # Rows measured but not gated (report-only rows in ci.sh's filter):
    # printed so the CI log carries them, never compared.
    for name in sorted(set(cur) - set(GATED) - {ANCHOR}):
        print(f"  {name:<28} cur {cur[name]:>12.0f} ns  report-only")

    if failed:
        print(f"bench_compare: {len(failed)} gated benchmark(s) regressed more than "
              f"{args.threshold:.0%} [anchor {ANCHOR}: committed {base[ANCHOR]:.0f} ns vs "
              f"measured {cur[ANCHOR]:.0f} ns, machine factor x{anchor_ratio:.3f}]: "
              f"{'; '.join(failed)}", file=sys.stderr)
        return 1
    print("bench_compare: all gated benchmarks within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
