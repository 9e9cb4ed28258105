#!/usr/bin/env python3
"""Project-invariant linter for streamsc.

Statically enforces repo rules that clang-tidy cannot express. Scans
`<root>/src` (never tests/, bench/, examples/ — those have their own,
looser conventions) and reports one `path:line: [rule] message` line per
violation; exit status 1 if anything was found, 0 on a clean tree.

Rules
-----
layer-dag     The layer dependency DAG is acyclic and explicit (mirrors
              src/CMakeLists.txt): a file in src/<layer>/ may only include
              "other/..." headers when `other` is reachable from <layer>
              in the DAG. Upward or sideways includes (util -> stream,
              storage -> core, ...) are build-order violations even when
              they happen to compile.
raw-assert    No raw `assert(` (or `#include <cassert>`) in src/: use
              STREAMSC_CHECK for API-boundary preconditions (always
              armed) or STREAMSC_DCHECK for debug-only hot-loop
              invariants (util/check.h). Raw assert silently compiles
              out under NDEBUG, hiding the armed/unarmed decision.
determinism   No `rand()`, `srand()`, or `std::random_device` in src/:
              all randomness flows through util/random.h's seeded Rng so
              every solver run is replayable bit-for-bit.
engine-ptr    No non-owning `ParallelPassEngine*` members in the solver
              layers (src/core, src/api): engines bind per run via
              RunContext (the PR-5 contract). A stored engine pointer
              couples a solver object to one pool's lifetime and breaks
              AnySolver reuse across runs.
arena-ptr     No non-owning `MonotonicArena*` members in the solver
              layers (src/core, src/api): same invariant as engine-ptr —
              arenas bind per run via RunContext (or per call via an
              explicit allocator argument), never stored in configs or
              solver objects. A stored arena pointer would couple a
              reusable solver to one run's memory lifetime. (SolveSession
              *owns* its arena via unique_ptr, which the rule does not
              match.)
chrono        No direct `std::chrono` (or `#include <chrono>`) in src/
              outside util/ and obs/: wall-clock timing flows through
              util/stopwatch.h (Stopwatch) or obs/trace.h
              (TraceRecorder::NowNs). A direct clock read bypasses the
              trace/export pipeline and scatters clock choices
              (steady vs system) across layers.
raw-popcount  No `std::popcount`, `__builtin_popcount*`, popcnt or pext
              intrinsic (`_mm_popcnt_u*`, `_mm{,256,512}_popcnt_epi*`,
              `_pext_u*`) and no `#include <immintrin.h>`/
              `<x86intrin.h>` in src/ outside util/word_kernels.cc: bit
              counts and gathers go through the word kernels, which bind
              AVX-512 VPOPCNTDQ, POPCNT and BMI2 once per process.
              Elsewhere the default build (no -mpopcnt) compiles a
              popcount to a libgcc `__popcountdi2` call per word.
raw-pass      No `BeginPass(`, `Next(&` or `ItemAt(` outside src/stream,
              src/storage and src/dynamic (the layers that implement
              streams and their pass primitives): every other layer
              passes over a stream through EngineContext, whose
              engine.passes counter is the run's reported pass count. A
              pass driven around it would be missing from every report,
              and reading sets by position would skip the pass entirely.
cover-state   No `SpaceCategory` named "uncovered" or "solution" in src/
              outside core/cover_run.cc: a set-cover run keeps U and its
              solution through CoverRun (core/cover_run.h), which charges
              both. A second copy of either category would meter a run's
              U or solution outside the one place that owns them.
instance-open No `LoadSetSystem(` in src/ outside storage/: an instance
              file is opened through OpenInstance (storage/
              mmap_set_stream.h), the one place that decides sscb1
              (mapped) versus ssc1 (parsed from the same mapping). A
              second reader elsewhere repeats that decision and can drift
              from it.
blocking-read No `std::ifstream` in src/ outside storage/mmap_file.cc,
              whose non-POSIX fallback reads the whole file with one:
              files are read through MmapFile::Open, which opens
              O_NONBLOCK and refuses a FIFO, directory or device without
              waiting. An ifstream open of an unfed FIFO blocks forever,
              so a user-supplied path would wedge the caller (a daemon
              worker, a session open). Comments do not count.
raw-thread    No `std::thread`, `std::jthread`, `std::condition_variable`
              or `std::async` in src/ outside stream/parallel_pass_engine.*
              and serve/: work is split across threads through the one
              ParallelPassEngine pool (EngineContext::ParallelFor), and
              the daemon owns its own acceptor and workers. A second pool
              elsewhere would compete with the engine's threads for the
              same cores. Static members (`std::thread::
              hardware_concurrency()`) do not count.
offline-table No `std::unordered_map`, `std::unordered_set`, `std::map`
              or `std::set` (nor their multi- forms) in src/offline/: an
              offline sub-solve keeps its memory bounded by the instance
              and its search depth, in arrays sized once per call. A
              table keyed by search state grows with every node a search
              expands, so a long search's memory would have no bound but
              its node budget. Comments and strings do not count.
isa-macro     No preprocessor test (`#if`, `#ifdef`, `#elif`, ... and
              their continuation lines) of `__POPCNT__`, `__BMI2__`,
              `__AVX*__` or `__SSE*__` anywhere in src/, the word
              kernels' home included: util/word_kernels.cc picks the
              instruction set at run time, so every build runs the same
              kernel code and no compile flag forks it into a second
              path. Comments and strings do not count.

Usage
-----
  scripts/lint_streamsc.py               # lint the repo this script lives in
  scripts/lint_streamsc.py --root DIR    # lint DIR/src instead (fixtures)
  scripts/lint_streamsc.py --list-rules
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Direct layer dependencies, mirroring src/CMakeLists.txt. The checker
# uses the transitive closure: if core may use offline and offline may
# use instance, a core file may include instance headers directly.
LAYER_DEPS = {
    "util": set(),
    "obs": {"util"},
    "instance": {"util"},
    "stream": {"obs", "instance", "util"},
    "storage": {"stream", "instance", "util"},
    "dynamic": {"storage", "stream", "instance", "obs", "util"},
    "offline": {"instance", "util"},
    "core": {"offline", "stream", "instance", "util"},
    "comm": {"stream", "instance", "util"},
    "info": {"comm", "instance", "util"},
    "api": {"core", "dynamic", "storage", "stream", "instance", "util"},
    "serve": {"api", "storage", "obs", "util"},
}

# Layers whose headers/sources must not hold engine or arena pointers
# (rules engine-ptr / arena-ptr). stream/ itself legitimately passes
# ParallelPassEngine* / MonotonicArena* through pass primitives and owns
# RunContext, so it is exempt; instance/ holds the arena binding of
# arena-backed SetSystems by design.
ENGINE_PTR_LAYERS = {"core", "api"}

SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
CASSERT_RE = re.compile(r"^\s*#\s*include\s+<cassert>")
ASSERT_RE = re.compile(r"(?<![_A-Za-z0-9])assert\s*\(")
RAND_RE = re.compile(r"(?<![_A-Za-z0-9])(?:s?rand\s*\(|random_device)")
ENGINE_PTR_RE = re.compile(
    r"ParallelPassEngine\s*\*\s*[A-Za-z_]\w*\s*(?:=|;|\{)")
ARENA_PTR_RE = re.compile(
    r"MonotonicArena\s*\*\s*[A-Za-z_]\w*\s*(?:=|;|\{)")
CHRONO_INCLUDE_RE = re.compile(r"^\s*#\s*include\s+<chrono>")
CHRONO_RE = re.compile(r"std\s*::\s*chrono")

POPCOUNT_RE = re.compile(
    r"(?<![_A-Za-z0-9])(?:std\s*::\s*popcount|__builtin_popcount\w*"
    r"|__builtin_ia32_pext_\w+|_pext_u(?:32|64)|_mm_popcnt_u(?:32|64)"
    r"|_mm(?:256|512)?_popcnt_epi(?:32|64))"
    r"(?![_A-Za-z0-9])")
# The x86 intrinsic headers: only the kernel home includes them.
INTRIN_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s+<(?:immintrin|x86intrin)\.h>")

# The one file that may count and gather bits with the builtins.
POPCOUNT_HOME = "src/util/word_kernels.cc"

RAW_PASS_RE = re.compile(
    r"(?<![_A-Za-z0-9])(?:BeginPass\s*\(|Next\s*\(\s*&|ItemAt\s*\()")

# Layers that implement streams and their pass primitives; everything
# else passes over a stream through EngineContext.
RAW_PASS_EXEMPT_LAYERS = {"stream", "storage", "dynamic"}

# A SpaceCategory declared with the name "uncovered" or "solution". Matched
# on the raw line (the stripper blanks the literal), but only when the
# stripped line still declares a SpaceCategory (so a comment does not).
COVER_STATE_RE = re.compile(
    r'(?<![_A-Za-z0-9])SpaceCategory(?![_A-Za-z0-9])[^"]*'
    r'"(?:uncovered|solution)"')
SPACE_CATEGORY_RE = re.compile(
    r"(?<![_A-Za-z0-9])SpaceCategory(?![_A-Za-z0-9])")

# The one file that owns a set-cover run's U and solution categories.
COVER_STATE_HOME = "src/core/cover_run.cc"

# The ssc1 file loader, called to open an instance file.
INSTANCE_OPEN_RE = re.compile(r"(?<![_A-Za-z0-9])LoadSetSystem\s*\(")

# The layer that owns the one opener over the instance formats.
INSTANCE_OPEN_EXEMPT_LAYERS = {"storage"}

# A blocking file read stream, whose open waits forever on an unfed FIFO.
BLOCKING_READ_RE = re.compile(
    r"(?<![_A-Za-z0-9])std\s*::\s*(?:basic_)?ifstream(?![_A-Za-z0-9])")

# The one file that may read with it: MmapFile's non-POSIX fallback.
BLOCKING_READ_HOME = "src/storage/mmap_file.cc"

# Starting a thread or blocking on one, outside static member access.
RAW_THREAD_RE = re.compile(
    r"(?<![_A-Za-z0-9])std\s*::\s*(?:thread|jthread|condition_variable"
    r"(?:_any)?|async)(?![_A-Za-z0-9])(?!\s*::)")

# The one pool's files, and the daemon's layer, which owns its threads.
RAW_THREAD_HOME = "src/stream/parallel_pass_engine."
RAW_THREAD_EXEMPT_LAYERS = {"serve"}

# A node-based associative container, whose size grows with what is put
# in it rather than with the instance.
OFFLINE_TABLE_RE = re.compile(
    r"(?<![_A-Za-z0-9])std\s*::\s*(?:unordered_)?(?:multi)?(?:map|set)"
    r"(?![_A-Za-z0-9])")

# The layer whose sub-solves must keep memory bounded by search depth.
OFFLINE_TABLE_LAYERS = {"offline"}

# A conditional directive, whose condition may continue on the next line.
CONDITIONAL_RE = re.compile(
    r"^\s*#\s*(?:if|ifdef|ifndef|elif|elifdef|elifndef)(?![_A-Za-z0-9])")
# An instruction-set macro the compiler defines from its target flags.
ISA_MACRO_RE = re.compile(
    r"(?<![_A-Za-z0-9])__(?:POPCNT|BMI2|AVX\w*|SSE\w*)__(?![_A-Za-z0-9])")

# Layers that may touch std::chrono directly: util/ owns Stopwatch, obs/
# owns TraceRecorder's clock. Everything else must time through those.
CHRONO_EXEMPT_LAYERS = {"util", "obs"}


def transitive_closure(deps: dict[str, set[str]]) -> dict[str, set[str]]:
    closure = {layer: set(direct) for layer, direct in deps.items()}
    changed = True
    while changed:
        changed = False
        for layer, reach in closure.items():
            extra = set()
            for dep in reach:
                extra |= closure.get(dep, set())
            if not extra <= reach:
                reach |= extra
                changed = True
    for layer in closure:
        closure[layer].add(layer)  # a layer may always include itself
    return closure


LAYER_CLOSURE = transitive_closure(LAYER_DEPS)


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blanks out comments and string/char literals, preserving line
    structure so reported line numbers match the file. Good enough for a
    conventionally formatted C++ tree (no raw strings spanning rules)."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                result.append(ch)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                result.append(quote)
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


class Violation:
    def __init__(self, path: pathlib.Path, line: int, rule: str, msg: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def lint_file(path: pathlib.Path, layer: str,
              rel: pathlib.Path) -> list[Violation]:
    violations: list[Violation] = []
    try:
        raw = path.read_text(encoding="utf-8", errors="replace").split("\n")
    except OSError as err:
        return [Violation(rel, 0, "io", f"unreadable: {err}")]
    code = strip_comments_and_strings(raw)
    allowed = LAYER_CLOSURE.get(layer)
    in_condition = False
    for lineno, line in enumerate(code, start=1):
        # The stripper blanks string-literal contents, which would erase
        # the include path — match includes on the raw line, but only
        # when the stripped line is still a preprocessor directive (so a
        # commented-out include does not count).
        inc = (INCLUDE_RE.match(raw[lineno - 1])
               if line.lstrip().startswith("#") else None)
        if inc and allowed is not None:
            target = inc.group(1).split("/", 1)[0]
            if target in LAYER_DEPS and target not in allowed:
                direct = sorted(LAYER_DEPS[layer]) or ["(nothing)"]
                violations.append(Violation(
                    rel, lineno, "layer-dag",
                    f'layer "{layer}" must not include "{inc.group(1)}": '
                    f'"{target}" is not reachable from "{layer}" in the '
                    f"layer DAG (direct deps: {', '.join(direct)})"))
        if CASSERT_RE.match(line):
            violations.append(Violation(
                rel, lineno, "raw-assert",
                "#include <cassert> in src/ — use util/check.h "
                "(STREAMSC_CHECK / STREAMSC_DCHECK)"))
        if ASSERT_RE.search(line) and "static_assert" not in line:
            violations.append(Violation(
                rel, lineno, "raw-assert",
                "raw assert( in src/ — use STREAMSC_CHECK (API boundary, "
                "always armed) or STREAMSC_DCHECK (debug-only hot loop)"))
        if RAND_RE.search(line):
            violations.append(Violation(
                rel, lineno, "determinism",
                "rand()/srand()/std::random_device in src/ — all "
                "randomness must flow through util/random.h's seeded Rng"))
        if layer in ENGINE_PTR_LAYERS and ENGINE_PTR_RE.search(line):
            violations.append(Violation(
                rel, lineno, "engine-ptr",
                "ParallelPassEngine* member/variable in a solver layer — "
                "engines bind per run via RunContext "
                "(stream/stream_algorithm.h), never stored in configs"))
        if layer in ENGINE_PTR_LAYERS and ARENA_PTR_RE.search(line):
            violations.append(Violation(
                rel, lineno, "arena-ptr",
                "MonotonicArena* member/variable in a solver layer — "
                "arenas bind per run via RunContext (or per call via an "
                "allocator argument), never stored in configs"))
        if (layer not in CHRONO_EXEMPT_LAYERS
                and (CHRONO_INCLUDE_RE.match(line)
                     or CHRONO_RE.search(line))):
            violations.append(Violation(
                rel, lineno, "chrono",
                "direct std::chrono outside util//obs/ — time through "
                "util/stopwatch.h (Stopwatch) or obs/trace.h "
                "(TraceRecorder::NowNs) so clock choice and trace export "
                "stay centralized"))
        if rel.as_posix() != POPCOUNT_HOME and (
                POPCOUNT_RE.search(line) or INTRIN_INCLUDE_RE.match(line)):
            violations.append(Violation(
                rel, lineno, "raw-popcount",
                "raw popcount/pext or x86 intrinsic header in src/ — call "
                "the util/word_kernels.h kernels (CountAndWords, "
                "PopcountWords, GatherWords, RankMembers, ...), which bind "
                "the hardware instruction once per process"))
        if layer not in RAW_PASS_EXEMPT_LAYERS and RAW_PASS_RE.search(line):
            violations.append(Violation(
                rel, lineno, "raw-pass",
                "direct BeginPass()/Next(&)/ItemAt() outside stream//"
                "storage//dynamic/ — pass over the stream through an "
                "EngineContext primitive, which counts the pass in "
                "engine.passes"))
        if (rel.as_posix() != COVER_STATE_HOME
                and SPACE_CATEGORY_RE.search(line)
                and COVER_STATE_RE.search(raw[lineno - 1])):
            violations.append(Violation(
                rel, lineno, "cover-state",
                'SpaceCategory "uncovered"/"solution" outside '
                "core/cover_run.cc — keep a set-cover run's U and "
                "solution in a CoverRun (core/cover_run.h), which meters "
                "both"))
        if (layer not in INSTANCE_OPEN_EXEMPT_LAYERS
                and INSTANCE_OPEN_RE.search(line)):
            violations.append(Violation(
                rel, lineno, "instance-open",
                "LoadSetSystem() outside storage/ — open an instance file "
                "through OpenInstance (storage/mmap_set_stream.h), which "
                "decides sscb1 versus ssc1 once"))
        if (rel.as_posix() != BLOCKING_READ_HOME
                and BLOCKING_READ_RE.search(line)):
            violations.append(Violation(
                rel, lineno, "blocking-read",
                "std::ifstream in src/ — read a file through "
                "MmapFile::Open (storage/mmap_file.h), which refuses a "
                "FIFO instead of blocking on it"))
        if (layer not in RAW_THREAD_EXEMPT_LAYERS
                and not rel.as_posix().startswith(RAW_THREAD_HOME)
                and RAW_THREAD_RE.search(line)):
            violations.append(Violation(
                rel, lineno, "raw-thread",
                "std::thread/jthread/condition_variable/async outside "
                "stream/parallel_pass_engine.* and serve/ — split work "
                "through the ParallelPassEngine pool "
                "(EngineContext::ParallelFor)"))
        if layer in OFFLINE_TABLE_LAYERS and OFFLINE_TABLE_RE.search(line):
            violations.append(Violation(
                rel, lineno, "offline-table",
                "std::map/set/unordered_map/unordered_set in offline/ — a "
                "sub-solve's memory stays bounded by the instance and its "
                "search depth; keep per-call state in arrays sized once"))
        condition = in_condition or CONDITIONAL_RE.match(line) is not None
        in_condition = condition and line.rstrip().endswith("\\")
        if condition and ISA_MACRO_RE.search(line):
            violations.append(Violation(
                rel, lineno, "isa-macro",
                "compile-time instruction-set test in src/ — the word "
                "kernels (util/word_kernels.h) bind VPOPCNTDQ/POPCNT/BMI2 "
                "at run time; branch on the CPU there, not on the "
                "build's target flags"))
    return violations


def lint_tree(root: pathlib.Path) -> list[Violation]:
    src = root / "src"
    if not src.is_dir():
        print(f"lint_streamsc: no src/ directory under {root}",
              file=sys.stderr)
        sys.exit(2)
    violations: list[Violation] = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(root)
        parts = path.relative_to(src).parts
        layer = parts[0] if len(parts) > 1 else ""
        violations.extend(lint_file(path, layer, rel))
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(
        description="streamsc project-invariant linter")
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="tree to lint (expects <root>/src); defaults to the repo")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in ("layer-dag", "raw-assert", "determinism", "engine-ptr",
                     "arena-ptr", "chrono", "raw-popcount", "raw-pass",
                     "cover-state", "instance-open", "blocking-read",
                     "raw-thread", "offline-table", "isa-macro"):
            print(rule)
        return 0

    violations = lint_tree(args.root.resolve())
    for v in violations:
        print(v)
    if violations:
        print(f"lint_streamsc: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
