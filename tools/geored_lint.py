#!/usr/bin/env python3
"""Repository lint for geored: API conventions, concurrency and determinism.

One rule table (RULES below), one file walk, one comment/string stripper.
Library sources (src/) get every rule. The driver trees (bench/, examples/
and the CLI, tools/geored.cpp) ship beside the library and must model its
idioms, so they get exactly five rules: no-raw-assert, unseeded-rng,
pragma-once, registry-only and reference-only. The other rules stay
library-only on purpose: entry-point validation is a library-API contract,
and bench timing loops (bench/e2e) legitimately read the real clock. Tests
have their own idioms and are not linted.

Rules:

  no-raw-assert    No raw `assert(...)`: invariants use GEORED_ENSURE /
                   GEORED_CHECK / GEORED_DCHECK, which throw typed
                   exceptions instead of aborting (and keep the checks we
                   want kept in release builds).
  unseeded-rng     No rand()/srand(), std::mt19937, std::random_device,
                   std::default_random_engine or std::minstd_rand outside
                   src/common/random.*: every random stream flows through
                   geored::Rng, seeded explicitly, so runs reproduce.
  pragma-once      Every header carries `#pragma once`.
  ensure-on-entry  Public API entry points (non-static free functions and
                   public methods defined in .cpp files) that take a
                   size/index-like parameter validate their arguments with
                   GEORED_ENSURE (or delegate to a function that does).
                   Suppress a deliberate exception with a trailing
                   `// lint: no-ensure` on the signature line.
  registry-only    No direct OnlineClusteringPlacement construction outside
                   the placement layer, the epoch loop's proposal
                   (src/core/replication_manager.cpp) and the decentralized
                   collector's default rule (src/core/epoch_pipeline.cpp):
                   callers go through place::make_strategy("online") or
                   make_collector so every decision rule stays
                   registry-addressable.
  reference-only   No #include "reference/..." outside src/reference/ and
                   bench/micro_perf.cpp: the frozen scalar references are a
                   test-only library (geored_reference) that no production
                   library or other driver may depend on. Reads the raw
                   text, since the stripper blanks the include path. No
                   suppression.
  naked-sync       No raw std::mutex / std::condition_variable (or the std
                   lock adapters) outside src/common/sync.h. Every lock is a
                   capability-annotated geored::Mutex so Clang's
                   thread-safety analysis sees it. Suppress a deliberate
                   wrapping site with `// lint: naked-sync-ok`.
  wall-clock       No <chrono> clock reads, sleep_for/sleep_until, or POSIX
                   time calls in src/ outside the SystemClock implementation
                   and epoch stage tracing: all time flows through the
                   injected net::Clock so fault schedules, backoff and delay
                   faults replay deterministically. Suppress with
                   `// lint: wall-clock-ok` — except inside src/net/, where
                   the transport must take all its time from the injected
                   clock: there only src/net/clock.cpp is exempt and no
                   suppression is honoured.
  unordered-iter   No range-for over an unordered container unless the line
                   carries `// lint: unordered-iter-ok`. Hash-order iteration
                   feeding a serialized or reported path makes output depend
                   on the allocator; the suppression is the author's
                   assertion that the loop is an order-insensitive reduction
                   or that the result is sorted before it escapes.
  run-chunks       No direct ThreadPool::run_chunks call outside
                   src/common/thread_pool.*: callers use parallel_for /
                   parallel_reduce_sum, which run nested calls inline. A
                   direct run_chunks from inside a chunk body deadlocks the
                   pool on itself. Suppress a sanctioned driver with
                   `// lint: run-chunks-ok`.
  hot-alloc        No std::vector construction inside the hot kernel files
                   (HOT_ALLOC_FILES): per-call scratch there goes through the
                   epoch arena (common/arena.h) or a reused buffer, so
                   allocation regressions cannot sneak back into the
                   million-client paths. Deliberate sites (cold wire paths,
                   results that escape the call) carry `// lint: alloc-ok`.
  simd-dispatch    No target(...) attributes, intrinsics headers
                   (<immintrin.h> and friends) or __builtin_cpu_supports
                   outside src/common/point_set_simd.*: that module is the
                   one SIMD dispatch layer, and every other module calls its
                   kernels with simd::active_level(). No suppression.

Every rule scans the comment- and string-stripped text, whose line numbers
match the file's, except pragma-once, ensure-on-entry and reference-only,
which read the raw text (they look for a directive, for comment markers and
for an include path respectively).

The pass is AST-aware for the library when libclang's Python bindings are
importable (it then classifies tokens by cursor kind, so declarations in
comments or strings can never false-positive) and falls back to the regex
scan otherwise. The regex scan is authoritative for the exit status either
way; the AST pass can only add findings.

Exit status is 0 when clean, 1 when any violation is found, 2 on usage
errors (including finding zero files to lint — a silently-empty run would
read as a pass).
Usage: tools/geored_lint.py [repo-root]
"""

from __future__ import annotations

import pathlib
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Pattern, Union

# ---------------------------------------------------------------------------
# Patterns and whole-file checks
# ---------------------------------------------------------------------------

RAW_ASSERT = re.compile(r"(?<!static_)\bassert\s*\(")

UNSEEDED_RNG = re.compile(
    r"\bs?rand\s*\("
    r"|\bstd::(?:mt19937(?:_64)?|random_device|default_random_engine|minstd_rand0?)\b"
)

# Direct construction of the online-clustering strategy: `new`, make_unique /
# make_shared, a temporary `OnlineClusteringPlacement(...)`, or a named local
# `OnlineClusteringPlacement foo(...)` / `... foo;`.
DIRECT_CONSTRUCTION = re.compile(
    r"new\s+(?:place::)?OnlineClusteringPlacement\b"
    r"|make_(?:unique|shared)<[^>]*OnlineClusteringPlacement\s*>"
    r"|\bOnlineClusteringPlacement\s*[({]"
    r"|\bOnlineClusteringPlacement\s+\w+\s*[;({]"
)

NAKED_SYNC = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex"
    r"|condition_variable|condition_variable_any"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
)

# `sleep_ms` (the injected Clock's own method) deliberately does not match;
# poll()/accept() timeout *parameters* are liveness bounds, not clock reads.
WALL_CLOCK = re.compile(
    r"#\s*include\s*<chrono>"
    r"|\bstd::chrono\b|\bsteady_clock\b|\bsystem_clock\b|\bhigh_resolution_clock\b"
    r"|\bsleep_for\b|\bsleep_until\b|\bthis_thread\s*::\s*sleep"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bnanosleep\s*\(|\busleep\s*\("
    r"|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)

RUN_CHUNKS = re.compile(r"\brun_chunks\s*\(")

INCLUDE = re.compile(r"^\s*#\s*include\b")
REFERENCE_INCLUDE = re.compile(r'^\s*#\s*include\s*"reference/')

# A std::vector variable declaration (with or without constructor args) or a
# vector temporary. References and qualified-name function definitions do
# not match: only constructions that allocate per call.
HOT_ALLOC = re.compile(
    r"\bstd::vector\s*<[^;()]*?>\s+\w+\s*[;({=]"  # local / member declaration
    r"|\bstd::vector\s*<[^;()]*?>\s*[({]"  # temporary
)
HOT_ALLOC_FILES = (
    "src/common/point_set.cpp",
    "src/common/point_set_simd.cpp",
    "src/cluster/kmeans.cpp",
    "src/cluster/moment_store.cpp",
    "src/cluster/summarizer.cpp",
    "src/netcoord/rnp.cpp",
    "src/netcoord/vivaldi.cpp",
    "src/placement/evaluate.cpp",
    "src/core/epoch_pipeline.cpp",
    "src/core/epoch_trace.h",
    "src/serve/request_router.cpp",
    "src/serve/latency_histogram.h",
    "src/sim/simulator.cpp",
    "src/sim/network.cpp",
    "src/store/kvstore.cpp",
    "src/store/storage_node.h",
    "src/store/storage_node.cpp",
)

# A target attribute in either spelling (the string argument is blanked to
# "" by the stripper), any x86 intrinsics header, or a CPU feature probe.
SIMD_DISPATCH = re.compile(
    r"\btarget(?:_clones)?\s*\(\s*\""
    r"|#\s*include\s*<\w*intrin\.h>"
    r"|\b__builtin_cpu_(?:supports|is|init)\b"
)

# A range-for whose range expression names an unordered container: either the
# expression contains `unordered_` itself, or it is an identifier declared
# with an unordered type elsewhere in the same file (collected per file).
RANGE_FOR = re.compile(r"\bfor\s*\(\s*(?:const\s+)?[^;:)]*?:\s*(?P<range>[^)]+)\)")
UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(?P<name>\w+)\s*[;={(]"
)

SIZE_PARAM = re.compile(
    r"\b(?:std::)?(?:size_t|uint32_t|uint64_t|ptrdiff_t)\s+"
    r"(k|n|index|idx|quorum|dim|dimensions|node|node_id|replica|client|count)\b"
    r"|\bNodeId\s+\w+"
)
# A function definition: start of line (possibly indented once for a class),
# a return type token, a name, an argument list, then an opening brace on the
# same or the next line. Good enough for this codebase's clang-format style.
FUNC_DEF = re.compile(
    r"^(?P<indent>[ \t]*)(?!(?:if|for|while|switch|return|else|do|catch)\b)"
    r"(?P<sig>[A-Za-z_][\w:<>,&*\s]*?[\w>&*]\s+[\w:~]+\s*\((?P<args>[^;{}]*)\)"
    r"(?:\s*const)?(?:\s*noexcept)?)\s*(?::[^{;]+)?\{",
    re.MULTILINE,
)
VALIDATORS = ("GEORED_ENSURE", "GEORED_CHECK", "GEORED_DCHECK", "validate_")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments/strings while keeping line numbers aligned."""

    def blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"//[^\n]*", blank, text)
    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.DOTALL)
    return re.sub(r'"(?:[^"\\\n]|\\.)*"', '""', text)


class FileLint:
    """One file's text in raw (for markers) and stripped form."""

    def __init__(self, rel: pathlib.Path, text: str):
        self.rel = rel
        self.posix = rel.as_posix()
        self.text = text
        self.raw_lines = text.splitlines()
        self.lines = strip_comments_and_strings(text).splitlines()
        self.unordered_names = {
            m.group("name") for m in UNORDERED_DECL.finditer("\n".join(self.lines))
        }

    def raw(self, lineno: int) -> str:
        return self.raw_lines[lineno - 1] if lineno - 1 < len(self.raw_lines) else ""


def missing_pragma_once(lint: FileLint) -> Iterator[int]:
    if lint.rel.suffix == ".h" and "#pragma once" not in lint.text:
        yield 1


def function_body(text: str, open_brace: int) -> str:
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace : i + 1]
    return text[open_brace:]


def unvalidated_entry_points(lint: FileLint) -> Iterator[int]:
    """Signature lines of public .cpp definitions taking a size/index
    parameter whose body never validates. Reads the raw text: the
    anonymous-namespace detection keys on the `}  // namespace` comment."""
    if lint.rel.suffix != ".cpp":
        return
    text = lint.text
    for match in FUNC_DEF.finditer(text):
        sig, args = match.group("sig"), match.group("args")
        if not SIZE_PARAM.search(args) or sig.lstrip().startswith("static "):
            continue
        # Functions inside an anonymous namespace are not entry points.
        before = text[: match.start()]
        if before.count("namespace {") > before.count("}  // namespace\n"):
            if before.rfind("namespace {") > before.rfind("}  // namespace"):
                continue
        body = function_body(text, match.end() - 1)  # match ends at the '{'
        if not any(v in body for v in VALIDATORS):
            yield text.count("\n", 0, match.start()) + 1


def reference_includes(lint: FileLint) -> Iterator[int]:
    """Lines including a frozen reference header. The path is read from the
    raw line; the stripped line must still be an include, so a commented-out
    include does not count."""
    for lineno, raw in enumerate(lint.raw_lines, 1):
        if REFERENCE_INCLUDE.match(raw) and INCLUDE.match(lint.lines[lineno - 1]):
            yield lineno


def unordered_iteration(lint: FileLint) -> Iterator[int]:
    for lineno, line in enumerate(lint.lines, 1):
        match = RANGE_FOR.search(line)
        if not match:
            continue
        range_expr = match.group("range").strip()
        # The terminal identifier of the range expression (strip member
        # access chains and calls): `node.data_` -> `data_`.
        terminal = re.split(r"[.\->(]", range_expr)[-1].strip()
        if "unordered_" in range_expr or terminal in lint.unordered_names:
            yield lineno


# ---------------------------------------------------------------------------
# The rule table
# ---------------------------------------------------------------------------

LIBRARY = ("src/",)
DRIVERS = ("bench/", "examples/", "tools/geored.cpp")


@dataclass(frozen=True)
class Rule:
    name: str
    # A pattern searched on each stripped line, or a whole-file check that
    # yields offending line numbers.
    check: Union[Pattern[str], Callable[[FileLint], Iterable[int]]]
    scope: tuple[str, ...]  # path prefixes the rule covers
    allow: tuple[str, ...]  # path prefixes exempt inside the scope
    marker: str | None  # suppression marker on the offending line
    message: str

    def covers(self, posix: str) -> bool:
        return posix.startswith(self.scope) and not posix.startswith(self.allow)

    def findings(self, lint: FileLint) -> Iterator[int]:
        if callable(self.check):
            lines: Iterable[int] = self.check(lint)
        else:
            lines = (n for n, line in enumerate(lint.lines, 1) if self.check.search(line))
        for lineno in lines:
            if self.marker is None or self.marker not in lint.raw(lineno):
                yield lineno


RULES = (
    Rule(
        "no-raw-assert", RAW_ASSERT, LIBRARY + DRIVERS, (), None,
        "use GEORED_ENSURE/CHECK/DCHECK instead of raw assert",
    ),
    Rule(
        "unseeded-rng", UNSEEDED_RNG, LIBRARY + DRIVERS, ("src/common/random",), None,
        "direct RNG outside common/random; route randomness through geored::Rng so runs "
        "reproduce from a seed",
    ),
    Rule(
        "pragma-once", missing_pragma_once, LIBRARY + DRIVERS, (), None,
        "header lacks '#pragma once'",
    ),
    Rule(
        "ensure-on-entry", unvalidated_entry_points, LIBRARY, (), "lint: no-ensure",
        "public entry point takes a size/index parameter but never validates its "
        "arguments (GEORED_ENSURE it, delegate to a validate_* helper, or mark the "
        "signature '// lint: no-ensure')",
    ),
    Rule(
        "registry-only", DIRECT_CONSTRUCTION, LIBRARY + DRIVERS,
        ("src/placement/", "src/core/replication_manager.cpp", "src/core/epoch_pipeline.cpp"),
        None,
        "construct OnlineClusteringPlacement through place::make_strategy(\"online\") or "
        "make_collector, not directly",
    ),
    Rule(
        "reference-only", reference_includes, LIBRARY + DRIVERS,
        ("src/reference/", "bench/micro_perf.cpp"), None,
        "frozen scalar reference included outside src/reference/ and bench/micro_perf.cpp; "
        "the test-only geored_reference library must stay out of production code",
    ),
    Rule(
        "naked-sync", NAKED_SYNC, LIBRARY, ("src/common/sync.h",), "lint: naked-sync-ok",
        "raw std sync primitive outside common/sync.h; use geored::Mutex / MutexLock / "
        "CondVar so Clang's thread-safety analysis can see the lock (deliberate "
        "wrapping sites: '// lint: naked-sync-ok')",
    ),
    Rule(
        "wall-clock", WALL_CLOCK, LIBRARY,
        # src/net/ has its own, stricter row below. Epoch stage tracing is
        # observational-only wall time; nothing deterministic consumes it
        # (core/epoch_trace.h).
        ("src/net/", "src/core/epoch_trace.cpp"), "lint: wall-clock-ok",
        "real-time access outside src/net/clock.*; take time from the injected "
        "net::Clock so runs replay deterministically (deliberate: "
        "'// lint: wall-clock-ok')",
    ),
    Rule(
        "wall-clock", WALL_CLOCK, ("src/net/",), ("src/net/clock.cpp",), None,
        "the transport layer takes all its time from the injected net::Clock; only "
        "src/net/clock.cpp may touch the real clock, and no suppression applies here",
    ),
    Rule(
        "unordered-iter", unordered_iteration, LIBRARY, (), "lint: unordered-iter-ok",
        "iteration over an unordered container; hash order must not reach serialized "
        "or reported output — sort the result or, if the loop is an order-insensitive "
        "reduction, assert so with '// lint: unordered-iter-ok'",
    ),
    Rule(
        "run-chunks", RUN_CHUNKS, LIBRARY, ("src/common/thread_pool",),
        "lint: run-chunks-ok",
        "direct ThreadPool::run_chunks call; use parallel_for / parallel_reduce_sum, "
        "which run nested parallelism inline instead of deadlocking the pool "
        "(sanctioned drivers: '// lint: run-chunks-ok')",
    ),
    Rule(
        "hot-alloc", HOT_ALLOC, HOT_ALLOC_FILES, (), "lint: alloc-ok",
        "std::vector construction in a hot kernel file; use the epoch arena "
        "(common/arena.h) or a reused buffer for per-call scratch (deliberate sites: "
        "'// lint: alloc-ok')",
    ),
    Rule(
        "simd-dispatch", SIMD_DISPATCH, LIBRARY, ("src/common/point_set_simd.",), None,
        "instruction-set dispatch outside common/point_set_simd; add a kernel there "
        "and call it with simd::active_level()",
    ),
)


def rule_for(name: str, posix: str) -> Rule | None:
    """The row of rule `name` that covers `posix`, if any."""
    return next((r for r in RULES if r.name == name and r.covers(posix)), None)


def emit(errors: list[str], lint: FileLint, lineno: int, rule: Rule) -> None:
    errors.append(f"{lint.rel}:{lineno}: [{rule.name}] {rule.message}")


# ---------------------------------------------------------------------------
# Regex mode (always available; authoritative)
# ---------------------------------------------------------------------------


def regex_lint_file(lint: FileLint, errors: list[str]) -> None:
    for rule in RULES:
        if rule.covers(lint.posix):
            for lineno in rule.findings(lint):
                emit(errors, lint, lineno, rule)


# ---------------------------------------------------------------------------
# AST mode (libclang, optional; library files only)
# ---------------------------------------------------------------------------


def try_load_libclang():
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:  # missing/unloadable shared library
        return None


def ast_lint_file(cindex, root: pathlib.Path, lint: FileLint, errors: list[str]) -> bool:
    """AST pass for one file. Returns False to fall back to regex mode."""
    path = root / lint.rel
    try:
        tu = cindex.Index.create().parse(
            str(path),
            args=["-std=c++20", f"-I{root / 'src'}", "-fsyntax-only"],
            options=cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0,
        )
    except Exception:
        return False
    if any(d.severity >= cindex.Diagnostic.Fatal for d in tu.diagnostics):
        return False

    def here(cursor) -> int | None:
        loc = cursor.location
        if loc.file is None or pathlib.Path(loc.file.name) != path:
            return None
        return loc.line

    def flag(name: str, lineno: int) -> None:
        rule = rule_for(name, lint.posix)
        if rule is not None and (rule.marker is None or rule.marker not in lint.raw(lineno)):
            emit(errors, lint, lineno, rule)

    K = cindex.CursorKind
    for cursor in tu.cursor.walk_preorder():
        lineno = here(cursor)
        if lineno is None:
            continue
        spelled_type = ""
        if cursor.kind in (K.VAR_DECL, K.FIELD_DECL):
            spelled_type = cursor.type.spelling

        if NAKED_SYNC.search(spelled_type):
            flag("naked-sync", lineno)

        if cursor.kind in (K.DECL_REF_EXPR, K.CALL_EXPR):
            name = cursor.spelling or ""
            if (
                name in ("sleep_for", "sleep_until", "now", "gettimeofday",
                         "clock_gettime", "nanosleep", "usleep")
                and "chrono" in (cursor.referenced.location.file.name
                                 if cursor.referenced is not None
                                 and cursor.referenced.location.file is not None
                                 else "chrono")  # no referent info: be strict
            ):
                flag("wall-clock", lineno)
            if name == "run_chunks" and cursor.kind is K.CALL_EXPR:
                flag("run-chunks", lineno)

        if UNSEEDED_RNG.search(spelled_type):
            flag("unseeded-rng", lineno)

        if cursor.kind is K.CXX_FOR_RANGE_STMT:
            children = list(cursor.get_children())
            if children:
                range_type = children[-2].type.spelling if len(children) >= 2 else ""
                if "unordered_" in range_type:
                    flag("unordered-iter", lineno)
    return True


# ---------------------------------------------------------------------------


def collect_files(root: pathlib.Path) -> tuple[list[pathlib.Path], list[pathlib.Path]]:
    """(library files under src/, driver files)."""

    def sources(tree: pathlib.Path) -> list[pathlib.Path]:
        if not tree.is_dir():
            return []
        return [p for p in sorted(tree.rglob("*")) if p.suffix in (".cpp", ".h")]

    drivers = sources(root / "bench") + sources(root / "examples")
    cli = root / "tools" / "geored.cpp"
    if cli.is_file():
        drivers.append(cli)
    return sources(root / "src"), drivers


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    library, drivers = collect_files(root)
    if not library:
        print(
            f"error: found no .cpp/.h files under {root / 'src'} — an empty lint run "
            "would falsely read as a pass; check the path argument",
            file=sys.stderr,
        )
        return 2

    cindex = try_load_libclang()
    mode = "libclang AST" if cindex else "regex fallback"

    errors: list[str] = []
    for path in library + drivers:
        lint = FileLint(path.relative_to(root), path.read_text(encoding="utf-8"))
        regex_lint_file(lint, errors)
        if cindex and path in library:
            # An unparsable file keeps its regex findings alone.
            ast_lint_file(cindex, root, lint, errors)

    def location_key(error: str) -> tuple[str, int]:
        file, line = error.split(":", 2)[:2]
        return file, int(line)

    reported = sorted(set(errors), key=location_key)
    for error in reported:
        print(error)
    if reported:
        print(f"\n{len(reported)} violation(s) [{mode}].", file=sys.stderr)
        return 1
    print(f"geored_lint: clean [{mode}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
