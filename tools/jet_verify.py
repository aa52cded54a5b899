#!/usr/bin/env python3
"""jet-verify: concurrency-contract checker for jetsim.

Complements the Clang Thread Safety annotations (src/common/
thread_annotations.h): clang's -Wthread-safety proves *lock discipline*
(guarded members, acquisition order on annotated edges); jet-verify proves
the *cooperative contract* of §3.2 — code reachable from a cooperative
tasklet's hot path must never block — plus a handful of lexical rules the
compiler cannot see.

Rules
-----
  blocking-in-call   An unbounded wait (condition-variable wait, sleep,
                     thread join, JET_BLOCKING function) is reachable from a
                     cooperative root (an override of Tasklet::Call() or a
                     Processor hot-path virtual). Blocking a cooperative
                     worker stalls every tasklet sharing the thread — the
                     exact latency inversion Fig. 4 exists to avoid.
  lock-in-call       A mutex acquisition is reachable from a cooperative
                     root. A *bounded* critical section is tolerable at low
                     duty cycle; audit it and suppress inline, or mark the
                     callee JET_COOPERATIVE to declare the whole function an
                     audited boundary.
  single-writer      A relaxed atomic write. Legitimate only for cells with
                     one owning writer whose readers tolerate staleness
                     (statistics, debug ids); each site carries an inline
                     suppression stating why, replacing the old out-of-band
                     whitelist in lint_concurrency.py.
  raw-mutex          A raw std::mutex / std::shared_mutex /
                     std::condition_variable / std lock guard outside
                     thread_annotations.h. Raw primitives are invisible to
                     both enforcement layers; use the jet:: wrappers.
  volatile           `volatile` is never a substitute for std::atomic.
  lock-in-spin       (advisory) A mutex acquisition lexically inside a
                     busy-wait loop.
  owned-access       A mutex acquisition after an OwnedPartitionHandle
                     is acquired in the same function. Owned-partition
                     access is the zero-lock fast path of the
                     single-writer ownership model (DESIGN.md §
                     partition ownership); taking a lock inside that
                     scope reintroduces the contention the handle
                     exists to remove and risks deadlock against the
                     grid's quiesce protocol. The src/imdg
                     implementation itself is exempt (the handle's
                     internals coordinate with layout changes).

Suppressions
------------
An inline comment

    // jet-verify: allow(<rule>[, <rule>...]) — <reason>

on a code line covers that line; on a standalone comment line it covers the
contiguous run of following non-blank lines (so one comment can cover a
short audited block). A suppression with an unknown rule, with no reason,
or that suppresses nothing (stale) is itself an error — suppressions cannot
rot silently.

Backends
--------
  text   (default) pure-Python lexical backend: per-line rules plus a
         name-based over-approximating call graph for the reachability
         rules. Runs anywhere, no dependencies.
  clang  libclang (clang.cindex) AST backend over compile_commands.json:
         precise call resolution and annotation reads. Selected with
         --backend=clang or auto-picked when libclang is importable and a
         compilation database is present.

Usage
-----
  python3 tools/jet_verify.py [--strict] [--backend auto|text|clang]
                              [--compile-commands PATH]
                              [--expect RULE | --expect-clean] [paths...]

Default paths: src/. --strict exits non-zero on errors (CI and
tools/check.sh run strict). --expect RULE inverts the exit logic for
fixture tests: success means at least one finding of RULE fired in the
given paths; --expect-clean means no findings at all.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

RULES = {
    "blocking-in-call",
    "lock-in-call",
    "single-writer",
    "raw-mutex",
    "volatile",
    "lock-in-spin",
    "owned-access",
}

# Overrides of these virtuals run on cooperative workers inside the tasklet
# round (§3.2). Init is deliberately absent: it runs once per execution and
# is allowed to block.
ROOT_NAMES = {
    "Call",
    "Process",
    "TryProcess",
    "TryProcessWatermark",
    "CompleteEdge",
    "Complete",
    "SaveToSnapshot",
    "RestoreFromSnapshot",
    "FinishSnapshotRestore",
    "OnSnapshotCompleted",
}

VOLATILE_RE = re.compile(r"\bvolatile\b")
RELAXED_WRITE_RE = re.compile(
    r"(\.|->)(store|fetch_add|fetch_sub|fetch_or|fetch_and|fetch_xor|exchange)"
    r"\s*\([^;]*memory_order_relaxed"
)
RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable"
    r"(?:_any)?|scoped_lock|lock_guard|unique_lock|shared_lock)\b"
)
SPIN_LOOP_RE = re.compile(
    r"\b(while|for)\s*\([^)]*(\.load\s*\(|compare_exchange|\.test\s*\()"
)
LOCK_RE = re.compile(
    r"\bjet::(MutexLock|UniqueMutexLock|ReaderLock|WriterLock)\b|\.Lock\s*\(\s*\)"
    r"|\.lock\s*\(\s*\)"
)
BLOCKING_RE = re.compile(
    r"\bsleep_for\s*\(|\bsleep_until\s*\(|\.join\s*\(\s*\)"
    r"|\.wait\s*\(|\.wait_for\s*\(|\.wait_until\s*\("
    r"|\.Wait\s*\(|\.WaitFor\s*\("
)
OWNED_ACQUIRE_RE = re.compile(
    r"\bAcquireOwnedPartition\s*\(|\bOwnedPartitionHandle\b"
)
SUPPRESS_RE = re.compile(
    r"jet-verify:\s*allow\(([^)]*)\)\s*(?:—|--|-)?\s*(.*)"
)
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CALL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "decltype",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast", "catch",
    "defined", "assert", "new", "delete", "throw", "noexcept", "alignas",
    "static_assert", "typeid", "co_await", "co_return", "co_yield", "int",
    "int32_t", "int64_t", "uint64_t", "uint32_t", "size_t", "bool", "double",
    "float", "char", "void", "auto", "explicit",
}

# Matches a function definition header. The params group excludes ';' so
# declarations do not match; the trailer tolerates cv-qualifiers, override,
# noexcept and JET_* annotation macros before the body's '{' (or a
# constructor's ':' initializer list).
FUNC_RE = re.compile(
    r"(?:^|\n)[ \t]*(?!#)(?:[\w:<>,*&~\[\]]+[ \t\n]+)+"
    r"(?P<qual>(?:\w+::)*)(?P<name>~?[A-Za-z_]\w*)[ \t]*"
    r"\((?P<params>[^;{}()]*(?:\([^;{}()]*\)[^;{}()]*)*)\)"
    r"(?P<trail>(?:[ \t\n]|const\b|final\b|override\b|noexcept\b"
    r"|JET_\w+(?:\([^()]*\))?|->[ \t]*[\w:<>&*]+)*)"
    r"(?P<open>\{|:)",
    re.MULTILINE,
)


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving offsets."""
    out = []
    i, n = 0, len(text)
    mode = None  # None | 'line' | 'block' | 'str' | 'chr'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        else:
            if c == "\n":
                out.append("\n")
                if mode == "line":
                    mode = None
                i += 1
                continue
            if mode == "block" and c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            if mode in ("str", "chr") and c == "\\":
                out.append("  ")
                i += 2
                continue
            if (mode == "str" and c == '"') or (mode == "chr" and c == "'"):
                mode = None
            out.append(" ")
        i += 1
    return "".join(out)


@dataclass
class Suppression:
    file: str
    line: int           # 1-based line of the comment
    rules: list[str]
    reason: str
    covered: set[int]   # 1-based line numbers this suppression covers
    used: bool = False
    bad: str | None = None  # hygiene error, if any


@dataclass
class FuncDef:
    name: str
    qual: str           # e.g. "Network::" (may be empty)
    file: str
    line: int           # 1-based line of the signature
    body_start: int     # 1-based first body line
    body_end: int       # 1-based last body line (inclusive)
    is_override: bool
    cooperative: bool
    blocking: bool
    # (line, kind, text) direct facts; kind in {lock, block}
    facts: list = field(default_factory=list)
    # (line, callee_name) call sites
    calls: list = field(default_factory=list)
    # transitive summaries (fixed point)
    locks: tuple | None = None   # witness (file, line, desc) or None
    blocks: tuple | None = None


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str
    advisory: bool = False

    def render(self) -> str:
        sev = "warning" if self.advisory else "error"
        return f"{sev}: {self.file}:{self.line}: [{self.rule}] {self.message}"

    def key(self) -> str:
        return f"{self.rule}:{self.file}:{self.line}"


def parse_suppressions(raw_lines: list[str], rel: str) -> list[Suppression]:
    """Extracts jet-verify suppression comments and their coverage."""
    sups: list[Suppression] = []
    n = len(raw_lines)
    for idx, line in enumerate(raw_lines):
        m = SUPPRESS_RE.search(line)
        if m is None:
            continue
        comment_pos = line.find("//")
        rules = [r.strip() for r in m.group(1).split(",") if r.strip()]
        reason = m.group(2).strip()
        sup = Suppression(rel, idx + 1, rules, reason, set())
        for r in rules:
            if r not in RULES:
                sup.bad = f"unknown rule '{r}'"
        if not rules:
            sup.bad = "empty rule list"
        code_before = comment_pos > 0 and line[:comment_pos].strip() != ""
        if code_before:
            sup.covered.add(idx + 1)
        else:
            # A standalone comment (plus contiguous continuation comments)
            # covers the following run of non-blank lines. If the reason is
            # empty on the marker line, a continuation comment may carry it.
            j = idx + 1
            while j < n and raw_lines[j].strip().startswith("//") and \
                    "jet-verify:" not in raw_lines[j]:
                if not reason:
                    reason = raw_lines[j].strip().lstrip("/").strip()
                j += 1
            while j < n and raw_lines[j].strip() != "":
                sup.covered.add(j + 1)
                j += 1
        if not reason:
            sup.bad = sup.bad or "missing reason (write: allow(rule) — why)"
        sup.reason = reason
        sups.append(sup)
    return sups


class SuppressionIndex:
    def __init__(self) -> None:
        self.by_file: dict[str, list[Suppression]] = {}

    def add_file(self, rel: str, sups: list[Suppression]) -> None:
        self.by_file[rel] = sups

    def match(self, rel: str, line: int, rule: str) -> Suppression | None:
        for sup in self.by_file.get(rel, []):
            if sup.bad is None and rule in sup.rules and line in sup.covered:
                return sup
        return None

    def hygiene_findings(self) -> list[Finding]:
        out = []
        for rel, sups in sorted(self.by_file.items()):
            for sup in sups:
                if sup.bad is not None:
                    out.append(Finding(
                        "suppression", rel, sup.line,
                        f"malformed suppression: {sup.bad}"))
                elif not sup.used:
                    out.append(Finding(
                        "suppression", rel, sup.line,
                        "stale suppression: it no longer matches any "
                        "finding; delete it or fix the rule list"))
        return out


def find_spin_scopes(lines: list[str]) -> list[tuple[int, int]]:
    """Returns (start, end) 0-based line ranges of busy-wait loop bodies."""
    scopes = []
    for idx, line in enumerate(lines):
        if not SPIN_LOOP_RE.search(line):
            continue
        depth = 0
        started = False
        for j in range(idx, min(idx + 80, len(lines))):
            depth += lines[j].count("{") - lines[j].count("}")
            if "{" in lines[j]:
                started = True
            if started and depth <= 0:
                scopes.append((idx, j))
                break
    return scopes


# ---------------------------------------------------------------------------
# Text backend
# ---------------------------------------------------------------------------

class TextBackend:
    """Lexical backend: per-line rules + name-based reachability analysis.

    Call resolution is by simple name, which over-approximates virtual
    dispatch — deliberately: a cooperative root must be safe under *every*
    possible callee, so matching all same-named definitions is the sound
    direction for this check. Only CamelCase callees are resolved: lowercase
    names (size, count, stats_...) collide with STL container methods on
    every line that touches a vector, and the codebase's method style is
    CamelCase; lowercase accessors are covered by the per-line rules and
    the clang backend's precise resolution.
    """

    def __init__(self, files: list[Path], repo_root: Path) -> None:
        self.repo_root = repo_root
        self.files = files
        self.sups = SuppressionIndex()
        self.funcs: list[FuncDef] = []
        self.by_name: dict[str, list[FuncDef]] = {}
        self.findings: list[Finding] = []

    def rel(self, path: Path) -> str:
        try:
            return path.relative_to(self.repo_root).as_posix()
        except ValueError:
            return path.as_posix()

    def run(self) -> list[Finding]:
        parsed = []
        for path in self.files:
            raw = path.read_text(errors="replace")
            stripped = strip_comments_and_strings(raw)
            rel = self.rel(path)
            self.sups.add_file(rel, parse_suppressions(raw.split("\n"), rel))
            parsed.append((path, rel, raw, stripped))

        for path, rel, raw, stripped in parsed:
            self.scan_lines(rel, stripped)
            self.extract_functions(rel, stripped)

        self.index_functions()
        self.solve_reachability()
        self.report_roots()
        self.findings.extend(self.sups.hygiene_findings())
        self.findings.sort(key=lambda f: (f.file, f.line, f.rule))
        return self.findings

    # -- per-line rules ----------------------------------------------------

    def scan_lines(self, rel: str, stripped: str) -> None:
        lines = stripped.split("\n")
        is_vocab = rel.endswith("common/thread_annotations.h")
        for idx, line in enumerate(lines, start=1):
            if VOLATILE_RE.search(line):
                self.emit(rel, idx, "volatile",
                          "`volatile` is banned; use std::atomic with an "
                          "explicit memory order")
            # Two-line window: a relaxed RMW often wraps its memory-order
            # argument onto the next line. Attribute to the first line;
            # skip when the next line alone matches (it gets its own turn).
            window = line if idx >= len(lines) else line + " " + lines[idx]
            if RELAXED_WRITE_RE.search(window) and not (
                    idx < len(lines) and RELAXED_WRITE_RE.search(lines[idx])):
                self.emit(rel, idx, "single-writer",
                          "relaxed atomic write: only correct for a cell "
                          "with one owning writer whose readers tolerate "
                          "staleness; audit and suppress inline")
            if not is_vocab and RAW_MUTEX_RE.search(line):
                self.emit(rel, idx, "raw-mutex",
                          "raw std synchronization primitive: invisible to "
                          "-Wthread-safety and jet-verify; use the jet:: "
                          "wrappers from common/thread_annotations.h")
        for start, end in find_spin_scopes(lines):
            # A loop that sleeps or waits each round is a poll, not a spin.
            if any(BLOCKING_RE.search(lines[j]) for j in range(start, end + 1)):
                continue
            for j in range(start + 1, end + 1):
                if LOCK_RE.search(lines[j]) or RAW_MUTEX_RE.search(lines[j]):
                    self.emit(rel, j + 1, "lock-in-spin",
                              f"mutex acquisition inside a busy-wait loop "
                              f"(started line {start + 1}); blocking under "
                              f"a spin defeats the cooperative scheduler's "
                              f"latency model", advisory=True)
                    break

    def emit(self, rel: str, line: int, rule: str, msg: str,
             advisory: bool = False) -> None:
        sup = self.sups.match(rel, line, rule)
        if sup is not None:
            sup.used = True
            return
        self.findings.append(Finding(rule, rel, line, msg, advisory))

    # -- function extraction -----------------------------------------------

    def extract_functions(self, rel: str, stripped: str) -> None:
        for m in FUNC_RE.finditer(stripped):
            name = m.group("name")
            if name in CALL_KEYWORDS or name.startswith("~"):
                continue
            open_pos = m.end() - 1
            if m.group("open") == ":":
                # Constructor initializer list: advance to the body's '{'
                # at paren depth 0.
                depth = 0
                pos = open_pos
                n = len(stripped)
                while pos < n:
                    c = stripped[pos]
                    if c == "(":
                        depth += 1
                    elif c == ")":
                        depth -= 1
                    elif c == "{" and depth == 0:
                        break
                    elif c == ";":
                        pos = -1
                        break
                    pos += 1
                if pos < 0 or pos >= n:
                    continue
                open_pos = pos
            body_end = self.match_brace(stripped, open_pos)
            if body_end < 0:
                continue
            sig_line = stripped.count("\n", 0, m.start(0)) + 2 \
                if stripped[m.start(0):m.start(0) + 1] == "\n" \
                else stripped.count("\n", 0, m.start(0)) + 1
            body_start = stripped.count("\n", 0, open_pos) + 1
            body_end_line = stripped.count("\n", 0, body_end) + 1
            trail = m.group("trail") or ""
            header = m.group(0)
            fn = FuncDef(
                name=name,
                qual=m.group("qual") or "",
                file=rel,
                line=sig_line,
                body_start=body_start,
                body_end=body_end_line,
                is_override="override" in trail,
                cooperative="JET_COOPERATIVE" in header,
                blocking="JET_BLOCKING" in header,
            )
            body = stripped[open_pos:body_end + 1]
            base = body_start
            # owned-access: first line of this body where an
            # OwnedPartitionHandle becomes live; locks after it are errors.
            # The handle implementation itself (src/imdg) coordinates with
            # the grid's quiesce protocol and is exempt.
            owned_line = None
            owned_exempt = rel.startswith("src/imdg/")
            for off, line in enumerate(body.split("\n")):
                ln = base + off
                if not owned_exempt:
                    if owned_line is not None and (LOCK_RE.search(line) or
                                                   RAW_MUTEX_RE.search(line)):
                        self.emit(rel, ln, "owned-access",
                                  f"mutex acquisition inside an owned-"
                                  f"partition scope (handle acquired line "
                                  f"{owned_line}): owned access is the "
                                  f"zero-lock single-writer fast path; a "
                                  f"lock here reintroduces the contention "
                                  f"it removes and can deadlock against "
                                  f"the grid's quiesce protocol")
                    if owned_line is None and OWNED_ACQUIRE_RE.search(line):
                        owned_line = ln
                if LOCK_RE.search(line):
                    fn.facts.append((ln, "lock", line.strip()))
                if BLOCKING_RE.search(line):
                    fn.facts.append((ln, "block", line.strip()))
                for cm in CALL_RE.finditer(line):
                    callee = cm.group(1)
                    if (callee not in CALL_KEYWORDS and callee != name
                            and callee[0].isupper()):
                        fn.calls.append((ln, callee))
            self.funcs.append(fn)

    @staticmethod
    def match_brace(text: str, open_pos: int) -> int:
        depth = 0
        for i in range(open_pos, len(text)):
            c = text[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return i
        return -1

    def index_functions(self) -> None:
        for fn in self.funcs:
            self.by_name.setdefault(fn.name, []).append(fn)

    # -- reachability ------------------------------------------------------

    def solve_reachability(self) -> None:
        """Fixed point over (locks, blocks) summaries, edge-aware for
        suppressions and JET_COOPERATIVE boundaries."""
        for fn in self.funcs:
            fn.locks = None
            fn.blocks = None
        changed = True
        rounds = 0
        while changed and rounds < 50:
            changed = False
            rounds += 1
            for fn in self.funcs:
                if fn.cooperative:
                    continue  # audited boundary: never propagates upward
                new_locks = fn.locks
                new_blocks = fn.blocks
                for ln, kind, text in fn.facts:
                    rule = "lock-in-call" if kind == "lock" else "blocking-in-call"
                    sup = self.sups.match(fn.file, ln, rule)
                    if sup is not None:
                        sup.used = True
                        continue
                    wit = (fn.file, ln, text)
                    if kind == "lock" and new_locks is None:
                        new_locks = wit
                    if kind == "block" and new_blocks is None:
                        new_blocks = wit
                for ln, callee in fn.calls:
                    defs = self.by_name.get(callee)
                    if not defs:
                        continue
                    for cd in defs:
                        if cd.file.endswith("common/thread_annotations.h"):
                            continue  # wrapper internals
                        if cd.cooperative:
                            continue
                        if cd.blocking:
                            sup = self.sups.match(fn.file, ln,
                                                  "blocking-in-call")
                            if sup is not None:
                                sup.used = True
                                continue
                            if new_blocks is None:
                                new_blocks = (fn.file, ln,
                                              f"call to JET_BLOCKING "
                                              f"{callee}()")
                            continue
                        if cd.locks is not None and new_locks is None:
                            sup = self.sups.match(fn.file, ln, "lock-in-call")
                            if sup is not None:
                                sup.used = True
                            else:
                                new_locks = cd.locks
                        if cd.blocks is not None and new_blocks is None:
                            sup = self.sups.match(fn.file, ln,
                                                  "blocking-in-call")
                            if sup is not None:
                                sup.used = True
                            else:
                                new_blocks = cd.blocks
                if new_locks != fn.locks or new_blocks != fn.blocks:
                    fn.locks = new_locks
                    fn.blocks = new_blocks
                    changed = True

    def report_roots(self) -> None:
        for fn in self.funcs:
            if fn.name not in ROOT_NAMES or not fn.is_override:
                continue
            if fn.cooperative:
                continue
            if fn.blocks is not None:
                wf, wl, wtext = fn.blocks
                self.emit(fn.file, fn.line, "blocking-in-call",
                          f"cooperative root {fn.qual}{fn.name}() reaches a "
                          f"blocking operation at {wf}:{wl} ({wtext}); a "
                          f"blocked worker stalls every tasklet sharing the "
                          f"thread (§3.2)")
            if fn.locks is not None:
                wf, wl, wtext = fn.locks
                self.emit(fn.file, fn.line, "lock-in-call",
                          f"cooperative root {fn.qual}{fn.name}() reaches a "
                          f"mutex acquisition at {wf}:{wl} ({wtext}); audit "
                          f"the critical section and suppress inline or "
                          f"mark the callee JET_COOPERATIVE")


# ---------------------------------------------------------------------------
# Clang backend
# ---------------------------------------------------------------------------

class ClangBackend:
    """AST backend over compile_commands.json via clang.cindex.

    Runs the same per-line lexical rules as the text backend (they are
    token-level properties), but replaces the name-based call graph with
    real cursor resolution: CALL_EXPR referenced declarations, AnnotateAttr
    reads for JET_BLOCKING / JET_COOPERATIVE, and override detection via
    CXX_OVERRIDE_ATTR / overridden cursors.
    """

    BLOCKING_DECLS = (
        "sleep_for", "sleep_until", "wait", "wait_for", "wait_until",
        "join", "Wait", "WaitFor",
    )

    def __init__(self, files, repo_root, compile_commands):
        import clang.cindex as cindex  # noqa: F401  (availability probed)
        self.cindex = cindex
        self.files = files
        self.repo_root = repo_root
        self.compile_commands = compile_commands
        self.text = TextBackend(files, repo_root)

    def run(self) -> list[Finding]:
        cindex = self.cindex
        findings = self.text.run()  # lexical rules + fallback graph
        try:
            db = cindex.CompilationDatabase.fromDirectory(
                str(self.compile_commands.parent))
        except cindex.CompilationDatabaseError:
            print("jet-verify: warning: unreadable compilation database; "
                  "clang backend ran lexical rules only", file=sys.stderr)
            return findings
        index = cindex.Index.create()
        seen: set[str] = set()
        extra: list[Finding] = []
        for path in self.files:
            if path.suffix != ".cc":
                continue
            cmds = db.getCompileCommands(str(path))
            if not cmds:
                continue
            args = [a for a in list(cmds[0].arguments)[1:-1]
                    if a not in ("-c", "-o", str(path))]
            try:
                tu = index.parse(str(path), args=args)
            except cindex.TranslationUnitLoadError:
                continue
            self.walk(tu.cursor, extra, seen)
        for f in extra:
            sup = self.text.sups.match(f.file, f.line, f.rule)
            if sup is not None:
                sup.used = True
                continue
            if f.key() not in {x.key() for x in findings}:
                findings.append(f)
        findings.sort(key=lambda f: (f.file, f.line, f.rule))
        return findings

    def annotations(self, cursor) -> set[str]:
        return {c.displayname for c in cursor.get_children()
                if c.kind == self.cindex.CursorKind.ANNOTATE_ATTR}

    def is_root(self, cursor) -> bool:
        kinds = (self.cindex.CursorKind.CXX_METHOD,)
        if cursor.kind not in kinds:
            return False
        if cursor.spelling not in ROOT_NAMES:
            return False
        try:
            return bool(cursor.get_overridden_cursors())
        except Exception:
            return False

    def walk(self, cursor, out: list[Finding], seen: set[str]) -> None:
        for child in cursor.walk_preorder():
            if not self.is_root(child) or not child.is_definition():
                continue
            loc = child.location
            if loc.file is None:
                continue
            rel = Path(loc.file.name)
            try:
                rel = rel.resolve().relative_to(self.repo_root).as_posix()
            except ValueError:
                continue
            key = f"{rel}:{loc.line}:{child.spelling}"
            if key in seen:
                continue
            seen.add(key)
            witness = self.find_blocking(child, depth=0, visited=set())
            if witness is not None:
                out.append(Finding(
                    "blocking-in-call", rel, loc.line,
                    f"cooperative root {child.spelling}() reaches a "
                    f"blocking operation: {witness}"))

    def find_blocking(self, cursor, depth: int, visited: set) -> str | None:
        if depth > 12:
            return None
        for node in cursor.walk_preorder():
            if node.kind != self.cindex.CursorKind.CALL_EXPR:
                continue
            ref = node.referenced
            if ref is None:
                continue
            anns = self.annotations(ref)
            if "jet::cooperative" in anns:
                continue
            if "jet::blocking" in anns or ref.spelling in self.BLOCKING_DECLS:
                loc = node.location
                fname = loc.file.name if loc.file else "?"
                return f"{ref.spelling}() at {fname}:{loc.line}"
            usr = ref.get_usr()
            if ref.is_definition() and usr not in visited:
                visited.add(usr)
                w = self.find_blocking(ref, depth + 1, visited)
                if w is not None:
                    return w
        return None


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(paths: list[str] | None, repo_root: Path) -> list[Path]:
    roots = [Path(p) for p in paths] if paths else [repo_root / "src"]
    files: list[Path] = []
    for root in roots:
        root = root if root.is_absolute() else repo_root / root
        if root.is_file():
            files.append(root)
        else:
            files.extend(sorted(root.rglob("*.h")))
            files.extend(sorted(root.rglob("*.cc")))
    return files


def pick_backend(name: str, files: list[Path], repo_root: Path,
                 compile_commands: Path | None):
    if name in ("clang", "auto"):
        cc = compile_commands
        if cc is None:
            for cand in (repo_root / "build" / "compile_commands.json",
                         repo_root / "compile_commands.json"):
                if cand.exists():
                    cc = cand
                    break
        try:
            import clang.cindex  # noqa: F401
            have_clang = True
        except ImportError:
            have_clang = False
        if have_clang and cc is not None:
            return ClangBackend(files, repo_root, cc)
        if name == "clang":
            print("jet-verify: error: --backend=clang requires the clang "
                  "python bindings and a compile_commands.json",
                  file=sys.stderr)
            sys.exit(2)
    return TextBackend(files, repo_root)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when errors exist")
    parser.add_argument("--backend", choices=("auto", "text", "clang"),
                        default="auto")
    parser.add_argument("--compile-commands", type=Path, default=None)
    parser.add_argument("--expect", default=None, metavar="RULE",
                        help="fixture mode: succeed iff >=1 finding of RULE")
    parser.add_argument("--expect-clean", action="store_true",
                        help="fixture mode: succeed iff no findings at all")
    parser.add_argument("paths", nargs="*", default=None)
    args = parser.parse_args()

    repo_root = Path(__file__).resolve().parent.parent
    files = collect_files(args.paths, repo_root)
    backend = pick_backend(args.backend, files, repo_root,
                           args.compile_commands)
    findings = backend.run()

    errors = [f for f in findings if not f.advisory]
    warnings = [f for f in findings if f.advisory]

    if args.expect is not None:
        hits = [f for f in findings if f.rule == args.expect]
        for f in findings:
            print(f.render())
        if hits:
            print(f"jet-verify: fixture OK: rule '{args.expect}' fired "
                  f"{len(hits)}x")
            return 0
        print(f"jet-verify: fixture FAILED: expected rule '{args.expect}' "
              f"to fire, it did not")
        return 1

    if args.expect_clean:
        for f in findings:
            print(f.render())
        if errors:
            print(f"jet-verify: fixture FAILED: expected a clean run, got "
                  f"{len(errors)} errors")
            return 1
        print("jet-verify: fixture OK: clean")
        return 0

    for f in errors:
        print(f.render())
    for f in warnings:
        print(f.render())
    backend_name = type(backend).__name__.replace("Backend", "").lower()
    print(f"jet-verify[{backend_name}]: {len(files)} files, "
          f"{len(errors)} errors, {len(warnings)} warnings")
    if args.strict and errors:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
