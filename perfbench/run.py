#!/usr/bin/env python3
"""Build and run the nbkv two-clock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench` (a package of its own,
built against the repository's crates) into $CARGO_TARGET_DIR, default
`.bench_build`, runs it, passes its report through, and prints as the last
line one JSON object with `correct`, `attempted`, `failed` and the metrics
`BENCHMARK.json` lists for the mode: `end_to_end` with `--trace 0`,
`per_layer` with `--trace 1`. Traced runs write their spans under
`<target>/perfbench-trace/`.

Exits non-zero, without a result line, when the build or the run fails or
a listed metric is missing; exits 1 after the result line when the output
check failed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    section = "per_layer" if args.trace == "1" else "end_to_end"
    wanted = [m["name"] for m in bench[section]]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(target, "release", "perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--trace-out", os.path.join(target, "perfbench-trace"),
    ]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"no output (exit {run.returncode})")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail(f"last output line is not JSON (exit {run.returncode})")
    for line in lines[:-1]:
        print(line)

    missing = [n for n in wanted if n not in report["metrics"]]
    if missing:
        fail(f"metrics missing from the report: {', '.join(missing)}")
    result = {
        "correct": bool(report["correct"]) and run.returncode == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: report["metrics"][n] for n in wanted},
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
