#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload <hot_touch|bloat_churn|fault_trace> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` binary in
release mode from this checkout (into `$CARGO_TARGET_DIR`, by default
`.bench_build` at the root), then runs it. The last line of standard
output is one JSON object with the result; the exit code is non-zero,
with no result, when the build or a run fails.

An end-to-end run (`--trace 0`) splits its seconds over PROCESSES
processes run one after another. On a shared host, a process's speed
differs from the next one's by up to 15 %, and neighbours slow every
process for tens of seconds at a time. Contention only ever adds time,
so the host-time figures are taken from the fastest process, as each
process takes them from its fastest iterations; every other metric is
the median across processes. A per-layer run (`--trace 1`) is one
process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
PROCESSES = 8
# Host-time metrics and how the fastest process is picked out.
FASTEST = {"wall_s": min, "setup_s": min, "touches_per_s": max}


def run_process(binary, args, seconds, env):
    """Runs the binary once, echoing its report; returns its result."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        return None
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def combine(results):
    """One result from every process's; counts add up."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        pick = FASTEST.get(name, statistics.median)
        metrics[name] = {"value": pick(values), "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    env = dict(os.environ)
    # The simulator reads these overrides from the environment; either
    # would change what the benchmark measures.
    for var in ("HAWKEYE_CORES", "HAWKEYE_NO_EVENT_SKIP"):
        env.pop(var, None)
    target = os.path.join(ROOT, env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")

    processes = 1 if args.trace else PROCESSES
    results = []
    for _ in range(processes):
        result = run_process(binary, args, args.seconds / processes, env)
        if result is None:
            print("perfbench: a benchmark process failed", file=sys.stderr)
            return 1
        results.append(result)
    print(json.dumps(combine(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
