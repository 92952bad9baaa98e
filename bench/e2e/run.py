#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark; prints its result as JSON.

    python3 bench/e2e/run.py --workload geo_steady --seed 1 --seconds 15 --trace 0

Run from the repository root. The driver is built first (a no-op when it is
up to date) into .bench_build/e2e with bench/e2e/CMakeLists.txt; build
output goes to stderr. The driver's report goes to stdout, and the last
line is one JSON object:

    {"correct": true, "attempted": N, "failed": M, "metrics": {...}}

holding every `end_to_end` metric of BENCHMARK.json (--trace 0) or every
`per_layer` metric (--trace 1), each as {"value": v, "unit": u}. A per-layer
metric of a layer the workload does not run (serve, store, sim) reads 0;
every time-valued metric is measured on every workload.

Extra flags are passed to the driver: --threads T, --scale full|smoke,
--spans FILE (every span of a traced run, as CSV). Exits 0 only when the
build, the run and every correctness check succeed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "e2e_bench"
RUN_TIMEOUT_S = 170
TIME_UNITS = {"s", "ms", "us", "ns"}


def fail(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build() -> None:
    jobs = str(min(4, os.cpu_count() or 1))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", "-S", str(SOURCE), "-B", str(BUILD), *generator],
             ["cmake", "--build", str(BUILD), "--target", "e2e_bench", "-j", jobs]]
    # Keep the compiler's temporary files inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_sha() -> str:
    # Only a checkout's own .git: never search the directories above it.
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def parse_report(lines: list[str]) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
    metrics: dict[str, tuple[float, str]] = {}
    result: dict[str, int] = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            metrics[fields[1]] = (float(fields[2]), fields[3])
        elif fields and fields[0] == "result":
            result = {key: int(value) for key, value in (f.split("=") for f in fields[1:])}
    return metrics, result


def select(spec: list[dict], metrics: dict[str, tuple[float, str]]) -> dict[str, dict]:
    selected = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name in metrics:
            value, printed_unit = metrics[name]
            if printed_unit != unit:
                fail(f"{name} printed in {printed_unit}, BENCHMARK.json says {unit}")
        elif unit in TIME_UNITS:
            fail(f"driver did not report {name}")
        else:
            value = 0.0  # a layer this workload does not run
        if not math.isfinite(value):
            fail(f"{name} is not finite: {value}")
        selected[name] = {"value": value, "unit": unit}
    return selected


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()

    benchmark = ROOT / "BENCHMARK.json"
    if not benchmark.is_file():
        fail(f"{benchmark} not found")
    spec = json.loads(benchmark.read_text())
    build()

    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--sha", git_sha(), *extra]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    metrics, result = parse_report(run.stdout.splitlines())
    if not result:
        fail(f"driver exited with {run.returncode} and no result")
    selected = select(spec["per_layer" if args.trace == "1" else "end_to_end"], metrics)
    correct = run.returncode == 0 and result["correct"] == 1
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": selected}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
