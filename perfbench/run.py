#!/usr/bin/env python3
"""Builds and runs the wavekey repository benchmark.

    python3 perfbench/run.py --workload pairing|access|churn --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
driver (perfbench/driver) and the wavekey libraries it links (../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls rebuild
incrementally. The access stage's fixed offered rate comes from
perfbench/design.json, so it never adapts to the code under test; every
other design parameter is a constant in the driver.

The driver prints a metric table and, as its last line, the JSON result.
This script checks that the result names exactly the metrics BENCHMARK.json
declares for the mode (end_to_end with --trace 0, per_layer with --trace 1)
and exits non-zero, without a result line, if the build or that check fails.
The exit code is also non-zero if any output oracle failed.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "wavekey_perf"


def build(out_dir):
    """Configures (once) and builds the driver; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the wavekey sources (src/) are not next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build tree.
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(out_dir), "--target", "wavekey_perf", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return out_dir / "wavekey_perf"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["pairing", "access", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        design = json.loads((HERE / "design.json").read_text())
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read the benchmark design: {err}")
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out_dir = build_dir()
    binary = build(out_dir)
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--access-rate", repr(float(design["access"]["offered_rate_per_s"])),
    ]
    if args.trace:
        traces = out_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-{args.seed}.csv")]

    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the driver did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        print("\n".join(lines), file=sys.stderr)
        fail(f"the driver (exit {proc.returncode}) printed no result")
    if names != expected:
        print("\n".join(lines[:-1]))
        fail(f"metric names differ from BENCHMARK.json: missing {sorted(expected - names)}, "
             f"unexpected {sorted(names - expected)}")
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
