#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); scratch
files (the daemon_fs tree, span dumps) go to `.bench_work`. Each workload
runs in its own process. The last stdout line is the workload's JSON
result; with `--workload all` it is one object keyed by workload. The exit
code is non-zero when the build fails, an output check fails or the result
does not list exactly the metrics BENCHMARK.json names.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["sim_fb_xgb", "sim_fig13_lru", "epoch_scale_xgb", "daemon_fs"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")
    return target_dir() / "release" / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(ROOT / ".bench_work")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return done.returncode or 1, None
    names = set(result["metrics"])
    want = expected_metrics(trace)
    if names != want:
        print(f"perfbench: {workload} metrics differ from BENCHMARK.json: "
              f"extra {sorted(names - want)}, missing {sorted(want - names)}",
              file=sys.stderr)
        return 1, None
    return done.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    binary = build()
    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        if result is not None:
            print(json.dumps(result))
        sys.exit(code)

    results, worst = {}, 0
    for w in WORKLOADS:
        print(f"== {w}")
        code, result = run_one(binary, w, args.seed, args.seconds, args.trace)
        worst = worst or code
        results[w] = result
    print(json.dumps(results))
    sys.exit(worst)


if __name__ == "__main__":
    main()
