#!/usr/bin/env python3
"""Build and run the Marion repository benchmark.

One run (what BENCHMARK.json's command does):

    python3 marionbench/run.py --workload compile_cold --seed 1 --seconds 10 --trace 0

builds the harness (first run only) into $CARGO_TARGET_DIR/marionbench
(default .bench_build/marionbench), runs one workload and passes its output
through; the last stdout line is the JSON result.

Steadiness evidence: run a workload K times in separate processes, seeds
SEED..SEED+K-1, and print each end-to-end metric's median, quartiles and
spread (IQR / median) beside its bound:

    python3 marionbench/run.py --workload simulate_suite --repeat 10 --seed 1

The benchmark's own tests:

    python3 marionbench/run.py --self-test
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile_cold", "simulate_suite", "daemon_edit_mix")
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "marionbench"


def build():
    """Configures and builds the harness; returns the binary path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"marionbench: no Marion sources under {ROOT}", file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4",
                  "--target", "marionbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("marionbench: build failed", file=sys.stderr)
            return None
    return out / "marionbench"


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    work = os.path.relpath(build_dir() / "run", ROOT)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"marionbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def repeat(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.seed, args.seed + args.repeat):
        start = time.monotonic()
        code, out = run_once(binary, args.workload, seed, args.seconds, 0)
        if code:
            return code
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed} ({time.monotonic() - start:.1f} s): "
              f"correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + json.dumps({k: m["value"]
                            for k, m in result["metrics"].items()}),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"\n{args.workload}: {args.repeat} runs, seeds "
          f"{args.seed}..{args.seed + args.repeat - 1}")
    print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:24} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bounds.get(name, 0):6.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        work = os.path.relpath(build_dir() / "run", ROOT)
        code = subprocess.run([str(binary), "--self-test", "--work-dir", work],
                              cwd=ROOT).returncode
        env = dict(os.environ, MARIONBENCH_BIN=str(binary))
        code |= subprocess.run(
            [sys.executable, "-m", "unittest", "-v", "test_benchmark"],
            cwd=HERE, env=env).returncode
        return code
    if args.repeat:
        return repeat(binary, args)
    code, out = run_once(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
