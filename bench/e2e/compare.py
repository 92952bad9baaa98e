#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
    python3 bench/e2e/compare.py --self-test

Each directory holds one file per run, named <workload>.<run>.json, holding
bench/e2e/run.py's whole stdout: its `metric` lines and, last, the JSON
result. Runs pair up by <run> within a workload. Make them as alternating
pairs (parent first in one pair, change first in the next) with the same
--seconds.

Every metric of BENCHMARK.json found in all runs is compared, with
`better` giving its direction. An end-to-end metric also has a `bound`, the
share of the parent's median by which it may worsen:

  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range, in the better direction;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's interquartile range exceeds the bound, and not
              every change run beats every parent run;
  no-worse    otherwise.

A per-layer metric has no bound. It is marked improved by the same rule,
and otherwise `-`.

A workload's row is worse if any metric is, else unresolved if any metric
is, else improved if any metric is, else no-worse. A gain does not count
when the change fails more operations than the parent. The exit code is 1
when any workload is worse, and 2 on bad input (fewer than 10 pairs, or a
failed run).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
ROOT = pathlib.Path(__file__).resolve().parents[2]


class InputError(Exception):
    pass


def parse_run(path: pathlib.Path, text: str) -> dict:
    """The JSON result of one run, its metrics extended by the metric lines."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise InputError(f"{path}: empty")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise InputError(f"{path}: the run reported correct=false")
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            metrics.setdefault(fields[1], float(fields[2]))
    return {"failed": result["failed"], "metrics": metrics}


def load_runs(directory: pathlib.Path) -> dict[str, dict[str, dict]]:
    """{workload: {run id: run}} from <workload>.<run>.json files."""
    runs: dict[str, dict[str, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        workload, _, run_id = path.stem.partition(".")
        if not run_id:
            raise InputError(f"{path}: expected <workload>.<run>.json")
        runs.setdefault(workload, {})[run_id] = parse_run(path, path.read_text())
    return runs


def classify(parent: list[float], change: list[float], better: str, bound: float | None,
             gains_count: bool = True) -> tuple[str, str]:
    """Status of one metric over paired runs, and a one-line detail."""
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = statistics.quantiles(parent, n=4)
    c1, c_med, c3 = statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    spread = p3 - p1
    gain = sign * (c_med - p_med)
    detail = (f"parent {p_med:.6g} [{p1:.6g}, {p3:.6g}]  change {c_med:.6g} [{c1:.6g}, {c3:.6g}]"
              f"  wins {wins}/{len(parent)}")
    if gains_count and wins >= WIN_SHARE * len(parent) and gain > spread:
        return "improved", detail
    if bound is None:
        return "-", detail
    if p_med and -gain / abs(p_med) > bound:
        return "worse", detail
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_med and spread / abs(p_med) > bound and not all_better:
        return "unresolved", detail
    return "no-worse", detail


def compare(parent: dict[str, dict[str, dict]], change: dict[str, dict[str, dict]],
            spec: dict) -> list[tuple[str, str, list[tuple[str, str, str]]]]:
    entries = spec["end_to_end"] + spec.get("per_layer", [])
    bounded = {entry["name"] for entry in spec["end_to_end"]}
    rows = []
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        ids = sorted(set(p_runs) & set(c_runs))
        if len(ids) < MIN_PAIRS:
            raise InputError(f"{workload}: {len(ids)} paired runs, need {MIN_PAIRS}")
        gains_count = (sum(c_runs[i]["failed"] for i in ids) <=
                       sum(p_runs[i]["failed"] for i in ids))
        metrics = []
        for entry in entries:
            name = entry["name"]
            if any(name not in runs[i]["metrics"] for runs in (p_runs, c_runs) for i in ids):
                continue
            values = [[runs[i]["metrics"][name] for i in ids] for runs in (p_runs, c_runs)]
            status, detail = classify(values[0], values[1], entry["better"], entry.get("bound"),
                                      gains_count)
            metrics.append((name, status, detail))
        if not any(name in bounded for name, _, _ in metrics):
            raise InputError(f"{workload}: no end-to-end metric in common")
        statuses = {status for _, status, _ in metrics}
        row = next((s for s in ("worse", "unresolved", "improved") if s in statuses), "no-worse")
        rows.append((workload, row, metrics))
    return rows


def print_rows(rows) -> None:
    for workload, status, metrics in rows:
        print(f"{workload:14s} {status}")
        for name, metric_status, detail in metrics:
            print(f"    {name:34s} {metric_status:10s} {detail}")


def self_test() -> int:
    spec = {"end_to_end": [{"name": "lat_p99_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "cycle.ops_per_s", "unit": "op/s", "better": "higher"}]}

    def runs(lat: list[float], ops: list[float], failed: int = 0) -> dict:
        return {"w": {str(i): {"failed": failed,
                               "metrics": {"lat_p99_ms": l, "cycle.ops_per_s": o}}
                      for i, (l, o) in enumerate(zip(lat, ops))}}

    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    noisy = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 85.0, 115.0]
    faster = [v * 1.2 for v in steady]
    cases = [
        ("identical", runs(steady, steady), runs(steady, steady), "no-worse"),
        ("faster", runs(steady, steady), runs(steady, faster), "improved"),
        ("lower latency", runs(steady, steady), runs([v * 0.8 for v in steady], steady),
         "improved"),
        ("higher latency", runs(steady, steady), runs([v * 1.2 for v in steady], faster),
         "worse"),
        ("within bound", runs(steady, steady), runs([v * 1.05 for v in steady], steady),
         "no-worse"),
        ("noisy", runs(noisy, steady), runs(noisy[::-1], steady), "unresolved"),
        ("gain with more failures", runs(steady, steady), runs(steady, faster, failed=1),
         "no-worse"),
    ]
    ok = True
    for name, parent, change, expected in cases:
        got = compare(parent, change, spec)[0][1]
        print(f"self-test {name:24s} expected {expected:10s} got {got}")
        ok &= got == expected
    try:
        compare(runs(steady[:5], steady[:5]), runs(steady[:5], steady[:5]), spec)
        print("self-test too few pairs       accepted, expected rejection")
        ok = False
    except InputError:
        print("self-test too few pairs       rejected")
    text = 'metric cycle.ops_per_s 5.5 op/s\n{"correct": true, "attempted": 1, "failed": 0, ' \
           '"metrics": {"lat_p99_ms": {"value": 2.5, "unit": "ms"}}}\n'
    parsed = parse_run(pathlib.Path("run"), text)["metrics"]
    print(f"self-test parse run            {parsed}")
    ok &= parsed == {"lat_p99_ms": 2.5, "cycle.ops_per_s": 5.5}
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?", type=pathlib.Path)
    parser.add_argument("change", nargs="?", type=pathlib.Path)
    parser.add_argument("--benchmark", type=pathlib.Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    try:
        rows = compare(load_runs(args.parent), load_runs(args.change),
                       json.loads(args.benchmark.read_text()))
    except InputError as error:
        print(f"compare.py: {error}", file=sys.stderr)
        return 2
    print_rows(rows)
    return 1 if any(status == "worse" for _, status, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
