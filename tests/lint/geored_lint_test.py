#!/usr/bin/env python3
"""Fixture self-test for tools/geored_lint.py (run by ctest as GeoredLint.Fixtures).

Builds a small source tree in a temporary directory, runs the lint on it and
compares its findings with the expectations written into the fixture lines:
a line that must be reported ends in `// expect: <rule>[, <rule>...]`. Every
other line must stay silent, including the lines that carry a rule's
suppression marker. The test also fails unless every rule of the lint's
table fires somewhere and every suppression marker silences a line that
would otherwise fire, and it checks that an empty tree exits with status 2.

Usage: geored_lint_test.py path/to/geored_lint.py
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
import subprocess
import sys
import tempfile

FIXTURE = {
    # Library: one violation per rule, plus the lines each marker silences.
    "src/core/violations.cpp": [
        "/* A block comment",
        "   spanning three",
        "   lines keeps the line numbers below intact. */",
        "#include <chrono>  // expect: wall-clock",
        "#include <mutex>  // expect: naked-sync",
        "void f(int x) { assert(x); }  // expect: no-raw-assert",
        "std::mutex m;  // expect: naked-sync",
        "std::mutex wrapped;  // lint: naked-sync-ok",
        "auto t = std::chrono::steady_clock::now();  // expect: wall-clock",
        "auto u = std::chrono::steady_clock::now();  // lint: wall-clock-ok",
        "int r = rand();  // expect: unseeded-rng",
        "std::minstd_rand engine;  // expect: unseeded-rng",
        "std::random_device device;  // expect: unseeded-rng",
        "void g(Pool& pool) { pool.run_chunks(4); }  // expect: run-chunks",
        "void h(Pool& pool) { pool.run_chunks(4); }  // lint: run-chunks-ok",
        "auto s = std::make_unique<OnlineClusteringPlacement>(c);  // expect: registry-only",
        'const char* text = "assert(x) std::mutex rand() <immintrin.h>";',
        "static_assert(sizeof(int) == 4);",
        "std::unordered_map<int, int> table;",
        "void k() {",
        "  for (const auto& kv : table) {}  // expect: unordered-iter",
        "  for (const auto& kv : table) {}  // lint: unordered-iter-ok",
        "}",
    ],
    "src/core/api.cpp": [
        '#include "core/api.h"',
        "namespace geored {",
        "std::size_t pick(std::size_t n) {  // expect: ensure-on-entry",
        "  return n + 1;",
        "}",
        "std::size_t checked(std::size_t n) {",
        '  GEORED_ENSURE(n > 0, "n");',
        "  return n;",
        "}",
        "std::size_t waived(std::size_t n) {  // lint: no-ensure",
        "  return n;",
        "}",
        "namespace {",
        "std::size_t helper(std::size_t n) { return n; }",
        "}  // namespace",
        "}  // namespace geored",
    ],
    "src/core/uses_reference.cpp": [
        '#include "reference/scalar.h"  // expect: reference-only',
        '  #  include "reference/router_scalar.h"  // expect: reference-only',
        '// #include "reference/scalar.h" in a comment does not count',
        "/*",
        '#include "reference/scalar.h" inside a block comment does not count either',
        "*/",
        '#include "placement/evaluate.h"',
    ],
    "src/core/no_pragma.h": [
        "// expect: pragma-once",
        "int declared();",
    ],
    "src/cluster/kmeans.cpp": [
        "void scan() {",
        "  std::vector<double> scratch(8);  // expect: hot-alloc",
        "  std::vector<double> kept(8);  // lint: alloc-ok",
        "}",
    ],
    "src/cluster/fast.h": [
        "#pragma once",
        "#include <immintrin.h>  // expect: simd-dispatch",
        '__attribute__((target("avx2"))) void k();  // expect: simd-dispatch',
        '[[gnu::target("avx512f")]] void k2();  // expect: simd-dispatch',
        'inline const bool kHas = __builtin_cpu_supports("avx2");  // expect: simd-dispatch',
        '// __attribute__((target("avx2"))) in a comment does not count',
        "void event_target(int kind);",
    ],
    # Inside src/net/ only clock.cpp may read the real clock, and the
    # wall-clock marker is not honoured.
    "src/net/transport.cpp": [
        "auto t = std::chrono::steady_clock::now();  // lint: wall-clock-ok  expect: wall-clock",
    ],
    "src/net/clock.h": [
        "#pragma once",
        "using Tick = std::chrono::steady_clock;  // expect: wall-clock",
    ],
    # Allowlisted homes: nothing fires.
    "src/net/clock.cpp": ["auto t = std::chrono::steady_clock::now();"],
    "src/core/epoch_trace.cpp": ["auto t = std::chrono::steady_clock::now();"],
    "src/common/random.cpp": ["std::mt19937_64 engine;"],
    "src/common/sync.h": ["#pragma once", "std::mutex m;"],
    "src/common/thread_pool.cpp": ["void go(Pool& pool) { pool.run_chunks(4); }"],
    "src/common/point_set_simd.cpp": [
        "#include <immintrin.h>",
        '__attribute__((target("avx2"))) void k() {}',
        'bool has() { return __builtin_cpu_supports("avx2"); }',
    ],
    "src/placement/online.cpp": ["auto p = new OnlineClusteringPlacement(config);"],
    "src/core/collector.cpp": ["OnlineClusteringPlacement strategy(config);"],
    "src/core/replication_manager.cpp": ["OnlineClusteringPlacement(strategy).place(input);"],
    "src/reference/kmeans_scalar.cpp": ['#include "reference/scalar.h"'],
    "bench/micro_perf.cpp": ['#include "reference/scalar.h"'],
    # Driver trees get exactly no-raw-assert, unseeded-rng, pragma-once,
    # registry-only and reference-only: the clock, sync, dispatch and
    # allocation rules stay off.
    "bench/driver.cpp": [
        "#include <chrono>",
        "#include <immintrin.h>",
        "std::mutex m;",
        "std::vector<double> scratch(8);",
        "auto t = std::chrono::steady_clock::now();",
        "void f(int x) { assert(x); }  // expect: no-raw-assert",
        "int r = rand();  // expect: unseeded-rng",
        "std::size_t pick(std::size_t n) { return n; }",
        '#include "reference/scalar.h"  // expect: reference-only',
    ],
    "bench/driver.h": ["// expect: pragma-once"],
    "examples/demo.cpp": [
        "OnlineClusteringPlacement strategy(config);  // expect: registry-only",
    ],
    "tools/geored.cpp": ["int main() { srand(1); }  // expect: unseeded-rng"],
    # Not linted: tests and other tools.
    "tests/some_test.cpp": ["void f(int x) { assert(x); }"],
    "tools/other.cpp": ["void f(int x) { assert(x); }"],
}

EXPECT = re.compile(r"expect: (?P<rules>[\w-]+(?:, [\w-]+)*)")
FINDING = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[\w-]+)\]")


def load_lint(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location("geored_lint", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def run_lint(lint: pathlib.Path, fixture: dict[str, list[str]]) -> tuple[int, set, str]:
    """Writes `fixture` to a temporary tree, lints it, and returns the exit
    status, the (path, line, rule) findings and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for rel, lines in fixture.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = subprocess.run([sys.executable, str(lint), str(root)],
                                capture_output=True, text=True)
    findings = set()
    for line in result.stdout.splitlines():
        found = FINDING.match(line)
        if found:
            findings.add((found.group("path"), int(found.group("line")), found.group("rule")))
    return result.returncode, findings, result.stderr


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lint_path = pathlib.Path(sys.argv[1]).resolve()
    module = load_lint(lint_path)
    failures: list[str] = []

    expected: set[tuple[str, int, str]] = set()
    silenced: set[tuple[str, int, str]] = set()
    for rel, lines in FIXTURE.items():
        for lineno, line in enumerate(lines, 1):
            found = EXPECT.search(line)
            rules = found.group("rules").split(", ") if found else []
            expected |= {(rel, lineno, rule) for rule in rules}
            silenced |= {
                (rel, lineno, rule.name)
                for rule in module.RULES
                if rule.marker and rule.marker in line and rule.covers(rel)
                and rule.name not in rules
            }

    status, reported, stderr = run_lint(lint_path, FIXTURE)
    if status != 1:
        failures.append(f"fixture run exited {status}, want 1\n{stderr}")
    for path, line, rule in sorted(expected - reported):
        failures.append(f"missed: {path}:{line} [{rule}]")
    for path, line, rule in sorted(reported - expected):
        failures.append(f"unexpected: {path}:{line} [{rule}]")

    # Every rule of the table fires somewhere, and every suppression marker
    # silences a line that reports its rule once the marker is removed.
    rule_names = {rule.name for rule in module.RULES}
    for name in sorted(rule_names - {rule for _, _, rule in expected}):
        failures.append(f"rule {name} never fires in the fixture")
    for rule in module.RULES:
        if rule.marker and not any(name == rule.name for _, _, name in silenced):
            failures.append(f"marker '{rule.marker}' of {rule.name} silences no fixture line")
    unmarked = {
        rel: [line.replace("// lint:", "// was:") for line in lines]
        for rel, lines in FIXTURE.items()
    }
    _, unmarked_reported, _ = run_lint(lint_path, unmarked)
    for path, line, rule in sorted(silenced - unmarked_reported):
        failures.append(f"{path}:{line} [{rule}] does not fire without its marker")

    # An empty tree — no src/ at all, or a src/ without sources — is a
    # usage error, never a clean pass.
    for name, fixture in (("tree without src/", {"README.md": ["empty"]}),
                          ("src/ without sources", {"src/README.md": ["no sources"]})):
        status, _, _ = run_lint(lint_path, fixture)
        if status != 2:
            failures.append(f"{name} exited {status}, want 2")

    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print(f"geored_lint fixtures: {len(expected)} findings as expected, "
          f"{len(rule_names)} rules covered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
