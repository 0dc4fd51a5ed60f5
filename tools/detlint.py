#!/usr/bin/env python3
"""Determinism & concurrency static auditor for the p2sim source tree.

The campaign's core guarantee -- bit-identical outputs for every
DriverConfig::threads value, with a lock-free hot path -- is enforced
dynamically by the fingerprint tests and the TSan CI job, which check the
runs we happen to exercise, not the code.  This auditor closes the gap by
checking the *source* against the annotation vocabulary declared in
src/check/annotate.hpp (P2SIM_PAR_SAFE, P2SIM_SERIAL_ONLY,
P2SIM_GUARDED_BY, P2SIM_ORDERED_FOLD).  Four rule families:

  1. Phase purity: every WorkloadDriver::phase_* method is classified
     parallel/serial against kPhases (src/workload/driver.hpp).  A
     parallel phase may only reach functions annotated P2SIM_PAR_SAFE
     (or living in a P2SIM_PAR_SAFE_FILE file), transitively, via a
     call-graph approximation over src/; reaching a P2SIM_SERIAL_ONLY
     function is an error, as is a serial phase dispatching to the pool.
  2. Nondeterminism bans: no std::random_device / rand / srand / time( /
     wall-clock reads outside src/util/rng.* and the telemetry wall-clock
     module (src/telemetry/trace.*); no unordered_map/unordered_set in
     src/ unless the declaration carries P2SIM_ORDERED_FOLD (iteration
     order must be laundered before any export).
  3. Concurrency manifest: every std::atomic / std::mutex /
     std::condition_variable member in src/ must have an entry in
     tools/concurrency_manifest.json (site, owner, protocol), the
     manifest may not list dead entries, every memory-order argument must
     match an order the manifest declares for that atomic, and
     P2SIM_GUARDED_BY annotations must agree with the manifest's guards
     lists in both directions.
  4. RNG stream discipline: code reachable from a parallel phase may only
     draw from a NodeLane-owned RNG stream (`rng` on the lane, or a
     `<lane>.rng` chain whose base is a NodeLane) -- never the driver's
     master stream or any other shared stream.

The call graph is a regex-level approximation (no compiler): receivers
are resolved through per-class member-type and per-function
parameter-type maps, and unresolvable calls conservatively fan out to
every same-name definition in src/.  That over-approximation is the
point: it can demand a redundant annotation, but it cannot silently let
a serial-state touch into the parallel closure.

Run from the repo root:  python3 tools/detlint.py
Self-check the auditor:  python3 tools/detlint.py --self-test
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

DRIVER_HPP = "src/workload/driver.hpp"
DRIVER_CPP = "src/workload/driver.cpp"
MANIFEST = "tools/concurrency_manifest.json"
ANNOTATE_HPP = "src/check/annotate.hpp"

# The annotation macros' home (skipped in every scan: it *defines* the
# vocabulary, it does not use it).
SCAN_SKIP = (ANNOTATE_HPP,)

# Wall-clock / entropy sources are legal only where randomness and wall
# time are the module's whole job.
NONDET_ALLOWLIST = (
    "src/util/rng.hpp",
    "src/util/rng.cpp",
    "src/telemetry/trace.hpp",
    "src/telemetry/trace.cpp",
    "src/util/http_server.cpp",
    "src/util/http_client.cpp",
)

NONDET_RES = (
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\btime\s*\("), "time()"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"), "high_resolution_clock"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime"),
    (re.compile(r"\b__rdtsc\b"), "__rdtsc"),
)

UNORDERED_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\b")

SITE_RE = re.compile(
    r"(?:mutable\s+)?std::(atomic(?:<[^;]*?>)?|atomic_flag|mutex|"
    r"shared_mutex|condition_variable(?:_any)?)\s+(\w+)\s*[;{=]"
)
ORDER_RE = re.compile(r"std::memory_order_(\w+)\b")
GUARDED_RE = re.compile(r"\b(\w+)\s+P2SIM_GUARDED_BY\((\w+)\)")

# Draw methods of util::Xoshiro256StarStar -- the RNG-discipline rule
# watches for these being invoked through a receiver inside the parallel
# closure.
DRAW_METHODS = (
    "next", "uniform", "below", "range", "normal", "lognormal_median",
    "exponential", "poisson", "chance", "split",
)
DRAW_RE = re.compile(
    r"([A-Za-z_]\w*(?:\[[^\]]*\])?(?:(?:\.|->)[A-Za-z_]\w*"
    r"(?:\[[^\]]*\])?)*)\s*(?:\.|->)\s*(" + "|".join(DRAW_METHODS) +
    r")\s*\("
)

KEYWORDS = frozenset(
    "if for while switch return sizeof catch do else new delete throw "
    "alignof decltype static_cast dynamic_cast reinterpret_cast "
    "const_cast static_assert defined assert int double float bool char "
    "long short unsigned signed void auto".split()
)

CALL_RE = re.compile(
    r"(?:\b([A-Za-z_]\w*)\s*(?:\.|->)\s*)?([A-Za-z_~]\w*)\s*\(")

CTRL_KEYWORDS = frozenset(
    "if for while switch catch do else try".split())


# --------------------------------------------------------------------------
# Source cleaning & structural scan
# --------------------------------------------------------------------------

def clean_source(text: str, keep_strings: bool = False) -> str:
    """Blank comments, preprocessor lines and (optionally) literal
    contents, preserving offsets and line structure exactly."""
    out = list(text)
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c == "#":
            while i < n and text[i] != "\n":
                if text[i - 1] == "\\" and text[i] == "\n":
                    pass
                out[i] = " "
                i += 1
                # honor line continuations
                if i < n and text[i] == "\n" and text[i - 1] == "\\":
                    out[i - 1] = " "
                    i += 1
            continue
        if c == "\n":
            at_line_start = True
            i += 1
            continue
        if not c.isspace():
            at_line_start = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
            continue
        if c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    if not keep_strings:
                        out[i] = " "
                    i += 1
                if i < n and text[i] != quote and text[i] != "\n":
                    if not keep_strings:
                        out[i] = " "
                i += 1
            i += 1
            continue
        i += 1
    return "".join(out)


def match_brace(text: str, open_idx: int) -> int:
    """Index of the `}` matching the `{` at open_idx (cleaned text)."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def line_of(text: str, idx: int) -> int:
    return text.count("\n", 0, idx) + 1


class FuncDef:
    def __init__(self, name, cls, rel, line, chunk, params, body):
        self.name = name
        self.cls = cls            # enclosing/qualifying class, or None
        self.rel = rel            # repo-relative file path
        self.line = line
        self.chunk = chunk        # signature text preceding the body
        self.params = params      # raw parameter-list text
        self.body = body          # cleaned body text (braces included)
        self.tags: set[str] = set()

    @property
    def qual(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name

    def __repr__(self):
        return f"<{self.qual} {self.rel}:{self.line}>"


class ClassExtent:
    def __init__(self, name, start, end):
        self.name = name
        self.start = start
        self.end = end
        self.members: dict[str, str] = {}


def _find_function(chunk: str):
    """If `chunk { ...` opens a function definition, return
    (name, cls_override, params); else None."""
    for m in re.finditer(r"([A-Za-z_~]\w*)\s*\(", chunk):
        name = m.group(1)
        if name in KEYWORDS or name.isupper() or name.startswith("P2SIM_"):
            continue
        # match the parameter parens
        depth = 0
        close = -1
        for i in range(m.end() - 1, len(chunk)):
            if chunk[i] == "(":
                depth += 1
            elif chunk[i] == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        if close < 0:
            continue
        rest = chunk[close + 1:].strip()
        if rest.startswith(":"):          # ctor init list
            pass
        elif re.fullmatch(
                r"(?:const\s*)?(?:noexcept\s*(?:\([^)]*\))?\s*)?"
                r"(?:->\s*[\w:<>&*,\s]+?)?\s*(?:override\s*)?"
                r"(?:final\s*)?", rest):
            pass
        else:
            continue
        qual = re.search(r"([A-Za-z_]\w*)\s*::\s*~?$", chunk[:m.start(1)])
        cls_override = qual.group(1) if qual else None
        params = chunk[m.end():close]
        return name, cls_override, params
    return None


def scan_file(rel: str, text: str):
    """One linear pass: function definitions + class extents with member
    types.  Returns (defs, class_extents, cleaned_text)."""
    clean = clean_source(text)
    defs: list[FuncDef] = []
    classes: list[ClassExtent] = []
    # scope stack entries: (kind, name_or_None, close_idx)
    stack: list[tuple[str, str | None, int]] = []
    i = 0
    n = len(clean)
    last_boundary = 0
    while i < n:
        c = clean[i]
        if c in ";}":
            last_boundary = i + 1
            while stack and stack[-1][2] <= i:
                stack.pop()
            i += 1
            continue
        if c != "{":
            i += 1
            continue
        while stack and stack[-1][2] <= i:
            stack.pop()
        chunk = clean[last_boundary:i].strip()
        chunk = re.sub(r"^(?:public|private|protected)\s*:\s*", "", chunk)
        close = match_brace(clean, i)
        if re.match(r"^namespace\b", chunk):
            stack.append(("namespace", None, close))
            last_boundary = i + 1
            i += 1
            continue
        if re.search(r"\benum\b", chunk):
            i = close + 1
            last_boundary = i
            continue
        cm = re.search(r"\b(?:class|struct|union)\s+([A-Za-z_]\w*)"
                       r"(?:\s+final)?\s*(?::[^{]*)?$", chunk)
        fn = _find_function(chunk)
        if cm and not fn:
            classes.append(ClassExtent(cm.group(1), i, close))
            stack.append(("class", cm.group(1), close))
            last_boundary = i + 1
            i += 1
            continue
        if fn:
            name, cls_override, params = fn
            cls = cls_override
            if cls is None:
                for kind, cname, _ in reversed(stack):
                    if kind == "class":
                        cls = cname
                        break
            d = FuncDef(name.lstrip("~"), cls, rel,
                        line_of(clean, last_boundary + 1), chunk,
                        params, clean[i:close + 1])
            if re.search(r"\bP2SIM_PAR_SAFE\b(?!_FILE)", chunk):
                d.tags.add("par_safe")
            if re.search(r"\bP2SIM_SERIAL_ONLY\b", chunk):
                d.tags.add("serial_only")
            defs.append(d)
            i = close + 1
            last_boundary = i
            continue
        # control block, braced initializer, lambda, ... -- opaque
        first = re.match(r"([A-Za-z_]\w*)", chunk)
        if first and first.group(1) in CTRL_KEYWORDS:
            i += 1          # control at file scope: descend normally
            last_boundary = i
            continue
        i = close + 1
        last_boundary = i
    # member types per class (class body minus nested function bodies is
    # approximated by scanning lines; good enough for receiver typing)
    for ce in classes:
        body = clean[ce.start:ce.end]
        for mm in re.finditer(
                r"(?:^|(?<=[;{}]))\s*(?:mutable\s+|static\s+|const\s+)*"
                r"((?:[\w:]+)(?:<[^;<>{}]*>)?)\s*[&*\s]\s*(\w+)\s*"
                r"(?:=[^;]*|\{[^;{}]*\})?;", body):
            ty, name = mm.group(1), mm.group(2)
            base = re.sub(r"<.*", "", ty).split("::")[-1]
            if base and base not in ("return",):
                ce.members.setdefault(name, base)
    return defs, classes, clean


def param_types(params: str) -> dict[str, str]:
    out: dict[str, str] = {}
    depth = 0
    piece = ""
    pieces = []
    for ch in params:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        if ch == "," and depth == 0:
            pieces.append(piece)
            piece = ""
        else:
            piece += ch
    if piece.strip():
        pieces.append(piece)
    for p in pieces:
        p = p.split("=")[0].strip()
        m = re.match(r"(?:const\s+)?((?:[\w:]+)(?:<[^<>]*>)?)"
                     r"[\s&*]+(\w+)\s*$", p)
        if m:
            base = re.sub(r"<.*", "", m.group(1)).split("::")[-1]
            out[m.group(2)] = base
    return out


LOCAL_DECL_KEYWORDS = KEYWORDS | frozenset(
    "case break continue goto using typedef struct class enum namespace "
    "template typename public private protected constexpr static const "
    "mutable co_return co_await co_yield".split())

LOCAL_DECL_RE = re.compile(
    r"(?:^|(?<=[;{}(]))\s*(?:const\s+|constexpr\s+|static\s+)*"
    r"((?:[\w:]+)(?:<[^<>]*>)?)"
    r"[\s&*]+([A-Za-z_]\w*)\s*(?=[=({;:])")


def local_types(body: str) -> dict[str, str]:
    """Types of local variables declared in a (cleaned) function body,
    name -> unqualified base type.  Same shape as param_types(); lets the
    resolver bind member calls on locals (``Power2Core core(cfg);
    core.run_counted(...)``) to the exact class instead of fanning out to
    every same-name definition in the tree."""
    out: dict[str, str] = {}
    for m in LOCAL_DECL_RE.finditer(body):
        base = re.sub(r"<.*", "", m.group(1)).split("::")[-1]
        name = m.group(2)
        if base in LOCAL_DECL_KEYWORDS or name in LOCAL_DECL_KEYWORDS:
            continue
        out.setdefault(name, base)
    return out


# --------------------------------------------------------------------------
# Model of the whole tree
# --------------------------------------------------------------------------

class Tree:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.defs: list[FuncDef] = []
        self.by_name: dict[str, list[FuncDef]] = {}
        self.classes: dict[str, ClassExtent] = {}
        self.clean: dict[str, str] = {}
        self.clean_strings: dict[str, str] = {}
        self.extents_by_file: dict[str, list[ClassExtent]] = {}
        self.par_safe_files: set[str] = set()
        for path in sorted((root / "src").rglob("*.[ch]pp")):
            rel = path.relative_to(root).as_posix()
            if rel in SCAN_SKIP:
                continue
            text = path.read_text()
            defs, classes, clean = scan_file(rel, text)
            self.defs.extend(defs)
            self.extents_by_file[rel] = classes
            for ce in classes:
                prev = self.classes.get(ce.name)
                if prev is None:
                    self.classes[ce.name] = ce
                else:
                    for k, v in ce.members.items():
                        prev.members.setdefault(k, v)
            self.clean[rel] = clean
            self.clean_strings[rel] = clean_source(text, keep_strings=True)
            if re.search(r"\bP2SIM_PAR_SAFE_FILE\b", clean):
                self.par_safe_files.add(rel)
        for d in self.defs:
            self.by_name.setdefault(d.name, []).append(d)
        self._apply_decl_tags()
        for d in self.defs:
            if d.rel in self.par_safe_files:
                d.tags.add("par_safe")

    def _apply_decl_tags(self):
        """Annotations on declarations (the canonical site is the header
        declaration) are unioned onto matching definitions."""
        decl_tags: dict[tuple[str | None, str], set[str]] = {}
        for rel, clean in self.clean.items():
            extents = self.extents_by_file.get(rel, [])
            for m in re.finditer(
                    r"\bP2SIM_(PAR_SAFE|SERIAL_ONLY)\b(?!_FILE)", clean):
                tag = ("par_safe" if m.group(1) == "PAR_SAFE"
                       else "serial_only")
                stmt = clean[m.end():m.end() + 400]
                stmt = re.split(r"[;{]", stmt)[0]
                fm = None
                for cand in re.finditer(r"([A-Za-z_~]\w*)\s*\(", stmt):
                    if (cand.group(1) in KEYWORDS
                            or cand.group(1).isupper()):
                        continue
                    fm = cand
                    break
                if not fm:
                    continue
                name = fm.group(1).lstrip("~")
                cls = None
                best = -1
                for ce in extents:
                    if ce.start <= m.start() < ce.end and ce.start > best:
                        cls = ce.name
                        best = ce.start
                decl_tags.setdefault((cls, name), set()).add(tag)
        for d in self.defs:
            d.tags |= decl_tags.get((d.cls, d.name), set())
            if not d.tags:
                d.tags |= decl_tags.get((None, d.name), set())

    def resolve(self, recv: str | None, name: str,
                ctx: FuncDef | None) -> list[FuncDef]:
        cands = self.by_name.get(name, [])
        if not cands:
            return []
        if recv:
            ty = None
            if ctx is not None:
                ty = param_types(ctx.params).get(recv)
                if ty is None:
                    lt = getattr(ctx, "_local_types", None)
                    if lt is None:
                        lt = ctx._local_types = local_types(ctx.body)
                    ty = lt.get(recv)
                if ty is None and ctx.cls in self.classes:
                    ty = self.classes[ctx.cls].members.get(recv)
            if ty is None:
                # Chained receiver (`kernel.body.size()` reaches here with
                # recv="body"): collect the types every class gives a
                # member of that name.  A unanimous type is adopted; with
                # disagreement the call is still skippable when no
                # candidate definition lives on any of those types --
                # whichever owner is right, the target is external.
                owner_tys = {ce.members[recv]
                             for ce in self.classes.values()
                             if recv in ce.members}
                if owner_tys:
                    exact = [d for d in cands if d.cls in owner_tys]
                    if len(owner_tys) == 1 or not exact:
                        return exact
            if ty is not None:
                # A determined receiver type is authoritative: an empty
                # match means the method lives on an external type (std::
                # containers and friends), not on anything we audit.
                return [d for d in cands if d.cls == ty]
            return cands
        if ctx is not None:
            local = [d for d in cands
                     if d.cls == ctx.cls or d.cls is None]
            if local:
                return local
        return cands

    def calls_in(self, body: str, ctx: FuncDef | None):
        """Yield (recv, name) pairs for call sites in a body."""
        for m in CALL_RE.finditer(body):
            recv, name = m.group(1), m.group(2)
            name = name.lstrip("~")
            if name in KEYWORDS or name.isupper():
                continue
            if name.startswith("P2SIM_"):
                continue
            if recv is None:
                prefix = body[:m.start(2)].rstrip()
                if prefix.endswith("std::"):
                    continue
                stem = None
                if prefix.endswith("."):
                    stem = prefix[:-1].rstrip()
                elif prefix.endswith("->"):
                    stem = prefix[:-2].rstrip()
                if stem is not None and stem.endswith(")"):
                    # Member call on a temporary (`duration_cast<..>(d)
                    # .count()`): the receiver type is not textually
                    # recoverable -- skip rather than fan out to every
                    # same-name definition.  Indexed receivers
                    # (`lanes[i].run_pipeline(`) still resolve by name.
                    continue
            yield recv, name


# --------------------------------------------------------------------------
# Rule family 1: phase purity
# --------------------------------------------------------------------------

PHASE_ROW_RE = re.compile(
    r"\{Phase::k(\w+),\s*\"([\w-]+)\",\s*(true|false)\}")


def parse_phases(tree: Tree) -> list[tuple[str, str, bool]]:
    text = tree.clean_strings.get(DRIVER_HPP, "")
    return [(m.group(1), m.group(2), m.group(3) == "true")
            for m in PHASE_ROW_RE.finditer(text)]


def parallel_closure(tree: Tree, problems: list[str]):
    """BFS the call graph from every parallel phase's pool dispatch.
    Returns the reached FuncDefs (annotated or not)."""
    phases = parse_phases(tree)
    if not phases:
        problems.append(
            f"{DRIVER_HPP}: could not parse kPhases -- the phase table "
            f"is the auditor's ground truth; update detlint if its shape "
            f"changed")
        return {}
    phase_methods = {f"phase_{name.replace('-', '_')}": par
                     for _, name, par in phases}
    driver_defs = {d.name: d for d in tree.defs
                   if d.cls == "WorkloadDriver"
                   and d.name.startswith("phase_")
                   and "CampaignState" in d.params}
    for meth, par in phase_methods.items():
        if meth not in driver_defs:
            problems.append(
                f"{DRIVER_HPP}: kPhases names phase method {meth!r} but "
                f"{DRIVER_CPP} does not define WorkloadDriver::{meth}")
    for name, d in sorted(driver_defs.items()):
        if name not in phase_methods:
            problems.append(
                f"{d.rel}:{d.line}: WorkloadDriver::{name} is not "
                f"classified in kPhases ({DRIVER_HPP}); every phase_* "
                f"method must have a kPhases row")
    dispatch_re = re.compile(r"\bpool\s*\.\s*run\s*\(")
    roots: list[tuple[FuncDef, str]] = []   # (ctx def, lambda body)
    for name, d in driver_defs.items():
        par = phase_methods.get(name)
        hits = list(dispatch_re.finditer(d.body))
        if par is False and hits:
            problems.append(
                f"{d.rel}:{d.line}: serial phase WorkloadDriver::{name} "
                f"dispatches to the task pool; kPhases classifies it "
                f"serial -- flip the kPhases row or drop the dispatch")
        if par is True:
            if not hits:
                problems.append(
                    f"{d.rel}:{d.line}: parallel phase "
                    f"WorkloadDriver::{name} has no pool.run( dispatch; "
                    f"the auditor cannot locate its parallel region")
            for h in hits:
                # arg extent of pool.run(...), then lambda bodies inside
                depth = 0
                argend = len(d.body)
                for i in range(h.end() - 1, len(d.body)):
                    if d.body[i] == "(":
                        depth += 1
                    elif d.body[i] == ")":
                        depth -= 1
                        if depth == 0:
                            argend = i
                            break
                args = d.body[h.end():argend]
                for lm in re.finditer(r"\]\s*(?:\([^)]*\))?\s*\{", args):
                    lend = match_brace(args, lm.end() - 1)
                    roots.append((d, args[lm.end() - 1:lend + 1]))
    # BFS
    reached: dict[int, tuple[FuncDef, str]] = {}   # id -> (def, via)
    queue: list[tuple[FuncDef, str]] = []
    for ctx, lam in roots:
        for recv, cname in tree.calls_in(lam, ctx):
            for target in tree.resolve(recv, cname, ctx):
                if id(target) not in reached:
                    reached[id(target)] = (
                        target, f"{ctx.qual} (parallel dispatch)")
                    queue.append((target, ctx.qual))
    while queue:
        d, _ = queue.pop()
        for recv, cname in tree.calls_in(d.body, d):
            for target in tree.resolve(recv, cname, d):
                if id(target) not in reached:
                    reached[id(target)] = (target, d.qual)
                    queue.append((target, d.qual))
    return reached


def check_phase_purity(tree: Tree) -> list[str]:
    problems: list[str] = []
    reached = parallel_closure(tree, problems)
    for d, via in sorted(reached.values(),
                         key=lambda rv: (rv[0].rel, rv[0].line)):
        if "serial_only" in d.tags:
            problems.append(
                f"{d.rel}:{d.line}: {d.qual} is P2SIM_SERIAL_ONLY but is "
                f"reachable from a parallel phase (via {via}); serial-"
                f"only functions own cross-node state and must stay out "
                f"of the node-advance closure")
        elif "par_safe" not in d.tags:
            problems.append(
                f"{d.rel}:{d.line}: {d.qual} is reachable from a "
                f"parallel phase (via {via}) but is not annotated "
                f"P2SIM_PAR_SAFE; annotate it (or mark the file "
                f"P2SIM_PAR_SAFE_FILE) after checking it touches only "
                f"lane-local state")
    return problems


# --------------------------------------------------------------------------
# Rule family 2: nondeterminism bans
# --------------------------------------------------------------------------

def check_nondeterminism(tree: Tree) -> list[str]:
    problems: list[str] = []
    for rel in sorted(tree.clean):
        clean = tree.clean[rel]
        in_allow = rel in NONDET_ALLOWLIST
        for i, line in enumerate(clean.splitlines(), start=1):
            if not in_allow:
                for rx, what in NONDET_RES:
                    if rx.search(line):
                        problems.append(
                            f"{rel}:{i}: {what} is a nondeterminism "
                            f"source; only src/util/rng.* and "
                            f"src/telemetry/trace.* may touch entropy "
                            f"or wall clocks -- route through "
                            f"util::Xoshiro256StarStar or "
                            f"telemetry::wall_now_us()")
            if (UNORDERED_RE.search(line)
                    and "P2SIM_ORDERED_FOLD" not in line):
                problems.append(
                    f"{rel}:{i}: unordered container without "
                    f"P2SIM_ORDERED_FOLD; hash-iteration order is not "
                    f"deterministic across libraries -- use std::map / "
                    f"sorted vectors, or annotate the declaration after "
                    f"laundering the fold into a deterministic order")
    return problems


# --------------------------------------------------------------------------
# Rule family 3: concurrency manifest
# --------------------------------------------------------------------------

def load_manifest(root: pathlib.Path):
    path = root / MANIFEST
    if not path.is_file():
        return None, [f"{MANIFEST}: missing; every std::atomic / "
                      f"std::mutex site must be documented there"]
    try:
        data = json.loads(path.read_text())
    except ValueError as e:
        return None, [f"{MANIFEST}: invalid JSON: {e}"]
    entries = data.get("sites")
    if not isinstance(entries, list):
        return None, [f"{MANIFEST}: top-level object must carry a "
                      f"'sites' array"]
    return entries, []


def check_manifest(tree: Tree) -> list[str]:
    entries, problems = load_manifest(tree.root)
    if entries is None:
        return problems
    kind_of = {"atomic": "atomic", "atomic_flag": "atomic",
               "mutex": "mutex", "shared_mutex": "mutex",
               "condition_variable": "condition_variable",
               "condition_variable_any": "condition_variable"}
    # detected sites: (rel, symbol) -> (kind, line)
    found: dict[tuple[str, str], tuple[str, int]] = {}
    for rel in sorted(tree.clean):
        for i, line in enumerate(tree.clean[rel].splitlines(), start=1):
            for m in SITE_RE.finditer(line):
                kind = kind_of[re.sub(r"<.*", "", m.group(1))]
                found[(rel, m.group(2))] = (kind, i)
    by_key = {}
    for e in entries:
        key = (e.get("file", ""), e.get("symbol", ""))
        if key in by_key:
            problems.append(
                f"{MANIFEST}: duplicate entry for {key[0]}:{key[1]}")
        by_key[key] = e
        for field in ("owner", "protocol", "kind"):
            if not e.get(field):
                problems.append(
                    f"{MANIFEST}: entry {key[0]}:{key[1]} is missing "
                    f"required field {field!r}")
    for (rel, sym), (kind, ln) in sorted(found.items()):
        e = by_key.get((rel, sym))
        if e is None:
            problems.append(
                f"{rel}:{ln}: std::{kind} {sym!r} is not in {MANIFEST}; "
                f"new synchronization may not land undocumented -- add a "
                f"site/owner/protocol entry")
        elif e.get("kind") != kind:
            problems.append(
                f"{MANIFEST}: entry {rel}:{sym} says kind "
                f"{e.get('kind')!r} but the source declares a "
                f"std::{kind}")
    for (rel, sym), e in sorted(by_key.items()):
        if (rel, sym) not in found:
            problems.append(
                f"{MANIFEST}: dead entry {rel}:{sym} -- no such "
                f"std::atomic/mutex/condition_variable declaration in "
                f"src/; delete the entry or restore the site")
    # memory-order arguments must match a documented atomic's orders
    atomics = {sym: e for (rel, sym), e in by_key.items()
               if e.get("kind") == "atomic"}
    seen_orders: dict[str, set[str]] = {sym: set() for sym in atomics}
    for rel in sorted(tree.clean):
        for i, line in enumerate(tree.clean[rel].splitlines(), start=1):
            for m in ORDER_RE.finditer(line):
                order = m.group(1)
                owner = next((sym for sym in atomics if sym in line),
                             None)
                if owner is None:
                    problems.append(
                        f"{rel}:{i}: std::memory_order_{order} on a line "
                        f"naming no manifest-documented atomic; the "
                        f"manifest must tie every explicit order to its "
                        f"atomic's protocol")
                    continue
                seen_orders[owner].add(order)
                allowed = atomics[owner].get("orders", [])
                if order not in allowed:
                    problems.append(
                        f"{rel}:{i}: {owner} used with "
                        f"std::memory_order_{order}, which {MANIFEST} "
                        f"does not list for it (allowed: "
                        f"{allowed or 'none'})")
    for sym, e in sorted(atomics.items()):
        for order in e.get("orders", []):
            if order not in seen_orders.get(sym, set()):
                problems.append(
                    f"{MANIFEST}: {sym} lists order {order!r} but no "
                    f"source line uses it; trim the manifest to the real "
                    f"protocol")
    # P2SIM_GUARDED_BY <-> guards lists, both directions
    annotated: dict[tuple[str, str], set[str]] = {}
    for rel in sorted(tree.clean):
        for m in GUARDED_RE.finditer(tree.clean[rel]):
            annotated.setdefault((rel, m.group(2)), set()).add(m.group(1))
    mutexes = {(relsym[0], relsym[1]): e
               for relsym, e in by_key.items() if e.get("kind") == "mutex"}
    for (rel, mu), members in sorted(annotated.items()):
        e = mutexes.get((rel, mu))
        guards = set(e.get("guards", [])) if e else set()
        for mem in sorted(members - guards):
            problems.append(
                f"{rel}: member {mem!r} is P2SIM_GUARDED_BY({mu}) but "
                f"{MANIFEST} does not list it in that mutex's guards")
    for (rel, mu), e in sorted(mutexes.items()):
        have = annotated.get((rel, mu), set())
        for mem in sorted(set(e.get("guards", [])) - have):
            problems.append(
                f"{MANIFEST}: {rel}:{mu} guards {mem!r} but the source "
                f"carries no P2SIM_GUARDED_BY({mu}) on that member")
    return problems


# --------------------------------------------------------------------------
# Rule family 4: RNG stream discipline
# --------------------------------------------------------------------------

def check_rng_discipline(tree: Tree) -> list[str]:
    problems: list[str] = []
    scratch: list[str] = []
    reached = parallel_closure(tree, scratch)
    bodies: list[tuple[FuncDef | None, str, str, int]] = []
    for d, _ in reached.values():
        bodies.append((d, d.body, d.rel, d.line))
    for ctx, body, rel, line in bodies:
        if rel in ("src/util/rng.hpp", "src/util/rng.cpp"):
            continue    # the generator's own internals
        for m in DRAW_RE.finditer(body):
            chain = re.sub(r"\[[^\]]*\]", "", m.group(1))
            parts = re.split(r"\.|->", chain)
            meth = m.group(2)
            ok = False
            # A generator constructed by value inside the function itself
            # (FaultSchedule::draw's counter-based splitmix/xoshiro chain)
            # cannot be a shared stream: every call owns its instance and
            # the seed is a pure function of the arguments.  References
            # deliberately do not match -- aliasing a shared stream
            # through a local name stays banned.
            if len(parts) == 1 and ctx is not None and re.search(
                    r"\b(?:util::)?(?:SplitMix64|Xoshiro256StarStar)"
                    r"\s+" + re.escape(parts[0]) + r"\s*[({=]",
                    ctx.body):
                ok = True
            # Power2Core's rng_ is object-owned and the parallel phase
            # constructs a fresh core per measurement task, so its stream
            # is task-local and seeded deterministically from the config.
            if not ok and parts == ["rng_"]:
                ok = ctx is not None and ctx.cls == "Power2Core"
            if not ok and parts[-1] == "rng":
                if len(parts) == 1:
                    ok = (ctx is not None and ctx.cls == "NodeLane")
                else:
                    base_ty = None
                    if ctx is not None:
                        base_ty = param_types(ctx.params).get(parts[0])
                        if base_ty is None and ctx.cls in tree.classes:
                            base_ty = tree.classes[ctx.cls].members.get(
                                parts[0])
                    ok = base_ty == "NodeLane"
            if not ok:
                where = ctx.qual if ctx else "parallel dispatch"
                problems.append(
                    f"{rel}:{line}: {where} draws "
                    f"{m.group(1)}.{meth}(...) inside the parallel "
                    f"closure; parallel-phase code may only draw from a "
                    f"NodeLane-owned stream (the lane's `rng` member) -- "
                    f"shared streams make results depend on thread "
                    f"interleaving")
    return problems


# --------------------------------------------------------------------------
# Driver / self-test
# --------------------------------------------------------------------------

def run_lint(root: pathlib.Path) -> int:
    if not (root / DRIVER_HPP).is_file():
        print(
            f"detlint: {root} does not look like the p2sim source tree "
            f"(missing {DRIVER_HPP})", file=sys.stderr)
        return 2
    tree = Tree(root)
    problems = (
        check_phase_purity(tree)
        + check_nondeterminism(tree)
        + check_manifest(tree)
        + check_rng_discipline(tree)
    )
    for p in problems:
        print(f"detlint: {p}", file=sys.stderr)
    if problems:
        print(f"detlint: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("detlint: OK")
    return 0


def self_test() -> int:
    """Prove the auditor detects each rule family's defect class."""
    import shutil
    import tempfile

    failures: list[str] = []

    def scenario(name, mutate, expect_substr, expect_rc=1):
        with tempfile.TemporaryDirectory() as td:
            tmp = pathlib.Path(td)
            shutil.copytree(REPO / "src", tmp / "src")
            (tmp / "tools").mkdir()
            shutil.copy2(REPO / MANIFEST, tmp / MANIFEST)
            if mutate is not None:
                mutate(tmp)
            import io
            import contextlib
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc = run_lint(tmp)
            output = err.getvalue()
            if rc != expect_rc:
                failures.append(
                    f"{name}: expected rc={expect_rc}, got {rc}\n{output}")
            elif expect_substr and expect_substr not in output:
                failures.append(
                    f"{name}: expected {expect_substr!r} in output, "
                    f"got:\n{output}")
            else:
                print(f"self-test: {name}: ok")

    def edit(tmp, rel, old, new, count=1):
        p = tmp / rel
        text = p.read_text()
        assert old in text, f"self-test fixture drift: {old!r} not in {rel}"
        p.write_text(text.replace(old, new, count))

    # family 1: phase purity -------------------------------------------
    scenario("pristine tree is clean", None, "", expect_rc=0)
    scenario(
        "phase purity: dropped P2SIM_PAR_SAFE fails",
        lambda tmp: edit(tmp, "src/workload/lane.hpp",
                         "P2SIM_PAR_SAFE void advance_interval",
                         "void advance_interval"),
        "not annotated P2SIM_PAR_SAFE")
    scenario(
        "phase purity: serial-only leaking into the closure fails",
        lambda tmp: edit(tmp, "src/workload/lane.hpp",
                         "P2SIM_PAR_SAFE void advance_interval",
                         "P2SIM_SERIAL_ONLY void advance_interval"),
        "P2SIM_SERIAL_ONLY but is reachable")
    scenario(
        "phase purity: serial phase dispatching to the pool fails",
        lambda tmp: edit(
            tmp, "src/workload/driver.cpp",
            "void WorkloadDriver::phase_nfs_grant(CampaignState& st) {",
            "void WorkloadDriver::phase_nfs_grant(CampaignState& st) {\n"
            "  st.pool.run(0, [](int, std::size_t, std::size_t) {});"),
        "serial phase WorkloadDriver::phase_nfs_grant dispatches")

    scenario(
        "phase purity: local-typed receiver resolves into the closure",
        # measure_quiet reaches run_counted through a local Power2Core;
        # the resolver must bind that edge exactly, so dropping the tag
        # on run_counted's declaration is caught.
        lambda tmp: edit(tmp, "src/power2/core.hpp",
                         "P2SIM_PAR_SAFE RunResult run_counted",
                         "RunResult run_counted"),
        "Power2Core::run_counted")
    scenario(
        "phase purity: temporary receivers do not fan out by name",
        # `.size()` on a call result has no recoverable receiver type;
        # it must NOT be charged to every size() definition in the tree.
        lambda tmp: edit(
            tmp, "src/workload/lane.hpp",
            "    interval_busy_s = step.busy_s;",
            "    interval_busy_s = step.busy_s;\n"
            "    (void)std::to_string(outcome_count).size();"),
        "", expect_rc=0)

    # family 2: nondeterminism bans ------------------------------------
    scenario(
        "nondeterminism: wall-clock read outside trace.* fails",
        lambda tmp: edit(
            tmp, "src/cluster/node.cpp",
            "namespace p2sim::cluster {",
            "namespace p2sim::cluster {\n"
            "inline double bad_now() {"
            " return static_cast<double>(time(nullptr)); }"),
        "nondeterminism source")
    scenario(
        "nondeterminism: unordered container without annotation fails",
        lambda tmp: edit(
            tmp, "src/workload/lane.hpp",
            "  LaneStep step;",
            "  LaneStep step;\n  std::unordered_map<int, int> scratch;"),
        "unordered container without P2SIM_ORDERED_FOLD")
    scenario(
        "nondeterminism: P2SIM_ORDERED_FOLD permits the container",
        lambda tmp: edit(
            tmp, "src/workload/lane.hpp",
            "  LaneStep step;",
            "  LaneStep step;\n"
            "  P2SIM_ORDERED_FOLD std::unordered_map<int, int> scratch;"),
        "", expect_rc=0)

    # family 3: concurrency manifest -----------------------------------
    scenario(
        "manifest: undocumented mutex fails",
        lambda tmp: edit(
            tmp, "src/workload/lane.hpp",
            "  LaneStep step;",
            "  LaneStep step;\n  std::mutex extra_mu_;"),
        "is not in tools/concurrency_manifest.json")
    def dead_entry(tmp):
        p = tmp / MANIFEST
        data = json.loads(p.read_text())
        data["sites"].append({
            "file": "src/workload/lane.hpp", "symbol": "ghost_mu_",
            "kind": "mutex", "owner": "workload::NodeLane",
            "protocol": "does not exist"})
        p.write_text(json.dumps(data))
    scenario("manifest: dead entry fails", dead_entry, "dead entry")
    scenario(
        "manifest: undeclared memory order fails",
        lambda tmp: edit(
            tmp, "src/telemetry/metrics.cpp",
            "g_metrics_created.fetch_add(1, std::memory_order_relaxed)",
            "g_metrics_created.fetch_add(1, std::memory_order_seq_cst)"),
        "does not list for it")
    scenario(
        "manifest: dropped P2SIM_GUARDED_BY fails",
        lambda tmp: edit(
            tmp, "src/telemetry/service.hpp",
            " P2SIM_GUARDED_BY(svc_mu_)", "", count=1),
        "carries no P2SIM_GUARDED_BY")

    # family 4: RNG stream discipline ----------------------------------
    scenario(
        "rng discipline: shared-stream draw in the closure fails",
        lambda tmp: edit(
            tmp, "src/workload/lane.hpp",
            "    interval_busy_s = step.busy_s;",
            "    interval_busy_s = step.busy_s;\n"
            "    (void)shared_stream->uniform(0.0, 1.0);"),
        "may only draw from a NodeLane-owned stream")
    scenario(
        "rng discipline: lane-owned draw in the closure passes",
        lambda tmp: edit(
            tmp, "src/workload/lane.hpp",
            "    interval_busy_s = step.busy_s;",
            "    interval_busy_s = step.busy_s;\n"
            "    (void)rng.uniform(0.0, 1.0);"),
        "", expect_rc=0)
    scenario(
        "rng discipline: locally-constructed generator passes",
        # FaultSchedule::draw's pattern: a by-value generator seeded from
        # the call's own arguments is task-local by construction.
        lambda tmp: edit(
            tmp, "src/workload/lane.hpp",
            "    interval_busy_s = step.busy_s;",
            "    interval_busy_s = step.busy_s;\n"
            "    util::Xoshiro256StarStar own(7);\n"
            "    (void)own.uniform(0.0, 1.0);"),
        "", expect_rc=0)
    scenario(
        "rng discipline: reference alias to a stream stays banned",
        # A reference named like a local must not launder a shared stream
        # through the locally-constructed-generator exemption.
        lambda tmp: edit(
            tmp, "src/workload/lane.hpp",
            "    interval_busy_s = step.busy_s;",
            "    interval_busy_s = step.busy_s;\n"
            "    util::Xoshiro256StarStar& alias = *shared_stream;\n"
            "    (void)alias.uniform(0.0, 1.0);"),
        "may only draw from a NodeLane-owned stream")

    if failures:
        for f in failures:
            print(f"self-test FAILURE: {f}", file=sys.stderr)
        return 1
    print("self-test: all scenarios passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="run the auditor's built-in scenarios")
    parser.add_argument("--root", type=pathlib.Path, default=REPO,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run_lint(args.root)


if __name__ == "__main__":
    sys.exit(main())
