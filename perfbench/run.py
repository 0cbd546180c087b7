#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload reproduce|fuzz|serve-soak \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the benchmark
executable (perfbench/main.exe) and the simulator libraries from source
with dune, then replaces itself with the benchmark, whose last line of
standard output is the JSON result. Build output goes to standard error;
a failed build exits non-zero without printing a result.

    python3 perfbench/run.py --selftest

runs every workload at a tiny size twice, in two processes, and checks
that both runs repeat every deterministic count and the output digest of
an untraced run, and that the metric names agree with BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["reproduce", "fuzz", "serve-soak"]

# Metric name prefixes whose values are counts fixed by the seed: two runs
# of one seed must repeat them exactly.
DETERMINISTIC = (
    "engine.events",
    "engine.live_fibers_max",
    "probe.",
    "gc.",
    "ctl.",
    "fabric.links_end",
    "flowmon.ticks",
    "fuzz.n.",
    "fuzz.events_per_scenario",
    "fuzz.probe_per_scenario",
    "paper.",
    "fail_frac",
)
# Names under those prefixes that are rates over host time, not counts.
NOT_DETERMINISTIC = ("engine.events_per_s",)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return False
    if done.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def run_once(args):
    out = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    digests = [line.split()[-1] for line in lines if line.startswith("# digest ")]
    return json.loads(lines[-1]), digests


def deterministic(name):
    return name.startswith(DETERMINISTIC) and not name.startswith(NOT_DETERMINISTIC)


def selftest():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        base = ["--workload", w, "--seed", "7", "--seconds", "0.1", "--tiny"]
        ends, d0 = run_once(base + ["--trace", "0"])
        names = set(ends["metrics"])
        declared = {m["name"] for m in spec["end_to_end"]}
        if names != declared:
            problems.append(f"{w}: end-to-end names differ from BENCHMARK.json: {names ^ declared}")
        (first, d1), (second, d2) = (run_once(base + ["--trace", "1"]) for _ in range(2))
        declared = {m["name"] for m in spec["per_layer"]}
        if set(first["metrics"]) != declared:
            problems.append(f"{w}: per-layer names differ from BENCHMARK.json")
        for r in (ends, first, second):
            if not r["correct"] or r["failed"] != 0:
                problems.append(f"{w}: run reported incorrect output or failures")
        if not d0 or d0 != d1 or d1 != d2:
            problems.append(f"{w}: digests differ: {d0} {d1} {d2}")
        for name, m in first["metrics"].items():
            if deterministic(name) and m["value"] != second["metrics"][name]["value"]:
                problems.append(
                    f"{w}: {name} not repeated: {m['value']} vs {second['metrics'][name]['value']}"
                )
        print(f"{w}: {len(first['metrics'])} per-layer metrics, digest {d1[0]}")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    if not build():
        return 1
    if args == ["--selftest"]:
        return selftest()
    sys.stdout.flush()
    os.execv(EXE, [EXE] + args)


if __name__ == "__main__":
    sys.exit(main())
