#!/usr/bin/env python3
"""Concurrency & determinism lint for geored's library sources.

Where lint_conventions.py enforces API idioms, this pass enforces the
invariants the capability annotations (common/sync.h) and the determinism
contract rest on. Checks, over src/:

  1. naked-sync        No raw std::mutex / std::condition_variable (or the
                       std lock adapters) outside src/common/sync.h. Every
                       lock must be a capability-annotated geored::Mutex so
                       Clang's thread-safety analysis sees it; a naked mutex
                       is invisible to -Werror=thread-safety and silently
                       re-opens the class of bugs the annotations closed.
                       Suppress a deliberate wrapping site with a trailing
                       `// lint: naked-sync-ok`.
  2. wall-clock        No <chrono> clock reads, sleep_for/sleep_until, or
                       POSIX time calls anywhere in src/ except the
                       SystemClock implementation (src/net/clock.cpp and its
                       header). All time flows through the injected
                       net::Clock so fault schedules, backoff, and delay
                       faults replay deterministically. Extends the old
                       net-only rule to the whole library. Suppress with
                       `// lint: wall-clock-ok`.
  3. unseeded-rng      No rand()/srand(), std::mt19937, std::random_device,
                       or std::default_random_engine outside
                       src/common/random.*: every random stream flows
                       through geored::Rng, seeded explicitly.
  4. unordered-iter    No range-for over an unordered container unless the
                       line carries `// lint: unordered-iter-ok`. Hash-order
                       iteration feeding a serialized or reported path makes
                       output depend on the allocator; the suppression
                       comment is the author's assertion that the loop is an
                       order-insensitive reduction or that the result is
                       sorted before it escapes.
  5. run-chunks        No direct ThreadPool::run_chunks call outside
                       src/common/thread_pool.*: callers use parallel_for /
                       parallel_reduce_sum, which run nested calls inline.
                       A direct run_chunks from inside a chunk body deadlocks
                       the pool on itself (the workers are already committed
                       to the outer task). Suppress a sanctioned driver with
                       `// lint: run-chunks-ok`.
  6. hot-alloc         No std::vector construction inside the hot kernel
                       files (the distance kernels, k-means, the evaluators,
                       the summarizer ingest path, the RNP/Vivaldi gossip
                       step, the simulator and the kv store's data path):
                       per-call scratch there
                       goes through the epoch arena (common/arena.h) or a
                       reused buffer, so allocation regressions cannot sneak
                       back into the million-client paths. Deliberate sites
                       (cold wire paths, the frozen scalar references,
                       results that escape the call) carry
                       `// lint: alloc-ok`.

The pass is AST-aware when libclang's Python bindings are importable (it
then classifies tokens by cursor kind, so declarations in comments or
strings can never false-positive) and falls back to a comment/string-
stripping regex scan otherwise. Both modes enforce the same rules; CI runs
whichever the runner provides, and the regex mode is authoritative for the
exit status either way.

Exit status is 0 when clean, 1 when any violation is found, 2 on usage
errors (including finding zero files to lint — a silently-empty run would
read as a pass).
Usage: tools/geored_lint.py [repo-root]
"""

from __future__ import annotations

import pathlib
import re
import sys

# ---------------------------------------------------------------------------
# Rules (shared by both modes)
# ---------------------------------------------------------------------------

NAKED_SYNC = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex"
    r"|condition_variable|condition_variable_any"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
)
SYNC_ALLOWLIST_FILES = ("src/common/sync.h",)

WALL_CLOCK = re.compile(
    r"#\s*include\s*<chrono>"
    r"|\bstd::chrono\b|\bsteady_clock\b|\bsystem_clock\b|\bhigh_resolution_clock\b"
    r"|\bsleep_for\b|\bsleep_until\b|\bthis_thread\s*::\s*sleep"
    r"|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bnanosleep\s*\(|\busleep\s*\("
    r"|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)
CLOCK_ALLOWLIST_FILES = (
    "src/net/clock.cpp",
    "src/net/clock.h",
    # Epoch stage tracing is observational-only wall time at sub-ms
    # resolution; nothing deterministic consumes it (core/epoch_trace.h).
    "src/core/epoch_trace.cpp",
)

UNSEEDED_RNG = re.compile(
    r"(?<!_)\b(?:s?rand)\s*\("
    r"|\bstd::(?:mt19937(?:_64)?|random_device|default_random_engine|minstd_rand0?)\b"
)
RNG_ALLOWLIST_PREFIXES = ("src/common/random",)

# A range-for whose range expression names an unordered container: either the
# expression contains `unordered_` itself, or it is an identifier declared
# with an unordered type elsewhere in the same file (collected per file).
RANGE_FOR = re.compile(r"\bfor\s*\(\s*(?:const\s+)?[^;:)]*?:\s*(?P<range>[^)]+)\)")
UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(?P<name>\w+)\s*[;={(]"
)

RUN_CHUNKS = re.compile(r"\brun_chunks\s*\(")
RUN_CHUNKS_ALLOWLIST_PREFIXES = ("src/common/thread_pool",)

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

SUPPRESSIONS = {
    "naked-sync": "lint: naked-sync-ok",
    "wall-clock": "lint: wall-clock-ok",
    "unordered-iter": "lint: unordered-iter-ok",
    "run-chunks": "lint: run-chunks-ok",
    "hot-alloc": "lint: alloc-ok",
}

MESSAGES = {
    "naked-sync": (
        "raw std sync primitive outside common/sync.h; use geored::Mutex / "
        "MutexLock / CondVar so Clang's thread-safety analysis can see the "
        "lock (deliberate wrapping sites: '// lint: naked-sync-ok')"
    ),
    "wall-clock": (
        "real-time access outside src/net/clock.*; take time from the "
        "injected net::Clock so runs replay deterministically "
        "(deliberate: '// lint: wall-clock-ok')"
    ),
    "unseeded-rng": (
        "direct RNG outside common/random; route randomness through "
        "geored::Rng so runs reproduce from a seed"
    ),
    "unordered-iter": (
        "iteration over an unordered container; hash order must not reach "
        "serialized or reported output — sort the result or, if the loop is "
        "an order-insensitive reduction, assert so with "
        "'// lint: unordered-iter-ok'"
    ),
    "run-chunks": (
        "direct ThreadPool::run_chunks call; use parallel_for / "
        "parallel_reduce_sum, which run nested parallelism inline instead of "
        "deadlocking the pool (sanctioned drivers: '// lint: run-chunks-ok')"
    ),
    "hot-alloc": (
        "std::vector construction in a hot kernel file; use the epoch arena "
        "(common/arena.h) or a reused buffer for per-call scratch "
        "(deliberate sites: '// lint: alloc-ok')"
    ),
}


def suppressed(check: str, raw_line: str) -> bool:
    marker = SUPPRESSIONS.get(check)
    return marker is not None and marker in raw_line


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments/strings while keeping line numbers aligned."""

    def blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"//[^\n]*", blank, text)
    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.DOTALL)
    return re.sub(r'"(?:[^"\\\n]|\\.)*"', '""', text)


class FileLint:
    """One file's text in both raw (for suppressions) and stripped form."""

    def __init__(self, rel: pathlib.Path, text: str):
        self.rel = rel
        self.posix = rel.as_posix()
        self.raw_lines = text.splitlines()
        self.lines = strip_comments_and_strings(text).splitlines()
        self.unordered_names = {
            m.group("name") for m in UNORDERED_DECL.finditer("\n".join(self.lines))
        }

    def raw(self, lineno: int) -> str:
        return self.raw_lines[lineno - 1] if lineno - 1 < len(self.raw_lines) else ""


def emit(errors: list[str], lint: FileLint, lineno: int, check: str) -> None:
    errors.append(f"{lint.rel}:{lineno}: [{check}] {MESSAGES[check]}")


# ---------------------------------------------------------------------------
# Regex mode (always available; authoritative)
# ---------------------------------------------------------------------------


def regex_lint_file(lint: FileLint, errors: list[str]) -> None:
    for lineno, line in enumerate(lint.lines, 1):
        raw = lint.raw(lineno)

        if lint.posix not in SYNC_ALLOWLIST_FILES and NAKED_SYNC.search(line):
            if not suppressed("naked-sync", raw):
                emit(errors, lint, lineno, "naked-sync")

        if lint.posix not in CLOCK_ALLOWLIST_FILES and WALL_CLOCK.search(line):
            if not suppressed("wall-clock", raw):
                emit(errors, lint, lineno, "wall-clock")

        if not lint.posix.startswith(RNG_ALLOWLIST_PREFIXES) and UNSEEDED_RNG.search(line):
            emit(errors, lint, lineno, "unseeded-rng")

        if not lint.posix.startswith(RUN_CHUNKS_ALLOWLIST_PREFIXES) and RUN_CHUNKS.search(line):
            if not suppressed("run-chunks", raw):
                emit(errors, lint, lineno, "run-chunks")

        if lint.posix in HOT_ALLOC_FILES and HOT_ALLOC.search(line):
            if not suppressed("hot-alloc", raw):
                emit(errors, lint, lineno, "hot-alloc")

        match = RANGE_FOR.search(line)
        if match and not suppressed("unordered-iter", raw):
            range_expr = match.group("range").strip()
            # The terminal identifier of the range expression (strip member
            # access chains and calls): `node.data_` -> `data_`.
            terminal = re.split(r"[.\->(]", range_expr)[-1].strip()
            if "unordered_" in range_expr or terminal in lint.unordered_names:
                emit(errors, lint, lineno, "unordered-iter")


# ---------------------------------------------------------------------------
# AST mode (libclang, optional)
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

    K = cindex.CursorKind
    for cursor in tu.cursor.walk_preorder():
        lineno = here(cursor)
        if lineno is None:
            continue
        raw = lint.raw(lineno)
        spelled_type = ""
        if cursor.kind in (K.VAR_DECL, K.FIELD_DECL):
            spelled_type = cursor.type.spelling

        if lint.posix not in SYNC_ALLOWLIST_FILES and NAKED_SYNC.search(spelled_type):
            if not suppressed("naked-sync", raw):
                emit(errors, lint, lineno, "naked-sync")

        if cursor.kind in (K.DECL_REF_EXPR, K.CALL_EXPR):
            name = cursor.spelling or ""
            if (
                lint.posix not in CLOCK_ALLOWLIST_FILES
                and name in ("sleep_for", "sleep_until", "now", "gettimeofday",
                             "clock_gettime", "nanosleep", "usleep")
                and "chrono" in (cursor.referenced.location.file.name
                                 if cursor.referenced is not None
                                 and cursor.referenced.location.file is not None
                                 else "chrono")  # no referent info: be strict
                and not suppressed("wall-clock", raw)
            ):
                emit(errors, lint, lineno, "wall-clock")
            if (
                not lint.posix.startswith(RUN_CHUNKS_ALLOWLIST_PREFIXES)
                and name == "run_chunks"
                and cursor.kind is K.CALL_EXPR
                and not suppressed("run-chunks", raw)
            ):
                emit(errors, lint, lineno, "run-chunks")

        if not lint.posix.startswith(RNG_ALLOWLIST_PREFIXES) and UNSEEDED_RNG.search(
            spelled_type
        ):
            emit(errors, lint, lineno, "unseeded-rng")

        if cursor.kind is K.CXX_FOR_RANGE_STMT and not suppressed("unordered-iter", raw):
            children = list(cursor.get_children())
            if children:
                range_type = children[-2].type.spelling if len(children) >= 2 else ""
                if "unordered_" in range_type:
                    emit(errors, lint, lineno, "unordered-iter")
    return True


# ---------------------------------------------------------------------------


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    src = root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory", file=sys.stderr)
        return 2
    files = [p for p in sorted(src.rglob("*")) if p.suffix in (".cpp", ".h")]
    if not files:
        print(
            f"error: found no .cpp/.h files under {src} — an empty lint run "
            "would falsely read as a pass; check the path argument",
            file=sys.stderr,
        )
        return 2

    cindex = try_load_libclang()
    mode = "libclang AST" if cindex else "regex fallback"

    errors: list[str] = []
    regex_errors: list[str] = []
    for path in files:
        lint = FileLint(path.relative_to(root), path.read_text(encoding="utf-8"))
        regex_lint_file(lint, regex_errors)
        if cindex:
            ast_errors: list[str] = []
            if ast_lint_file(cindex, root, lint, ast_errors):
                errors.extend(ast_errors)
            else:
                # Unparsable under the bare flags: regex findings stand in.
                errors.extend(e for e in regex_errors if e.startswith(f"{lint.rel}:"))

    # The regex pass is authoritative for the exit status: the AST pass can
    # only ever refine locations, never quietly pass what regex flags.
    def location_key(error: str) -> tuple[str, int]:
        file, line = error.split(":", 2)[:2]
        return file, int(line)

    reported = sorted(set(regex_errors) | set(errors), key=location_key)
    for error in reported:
        print(error)
    if reported:
        print(f"\n{len(reported)} violation(s) [{mode}].", file=sys.stderr)
        return 1
    print(f"geored_lint: clean [{mode}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
