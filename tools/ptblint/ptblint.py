#!/usr/bin/env python3
"""ptblint — static enforcement of the simulator's determinism and
observer-purity invariants.

The repo's core contract is that virtual times and observer reports are
bit-identical across backends, processes, and platforms (docs/MODEL.md,
docs/PERF.md). This tool enforces the invariant catalogue at lint time
instead of waiting for the 5x6 equivalence matrix to diverge:

  wall-clock         deterministic code must not read host time or host
                     entropy (std::chrono::*_clock, rand, random_device, ...)
  ptr-key-order      ordered containers keyed by raw pointers iterate in
                     allocation-address order, which differs across runs
  unordered-iter     iteration over std::unordered_{map,set} feeds results in
                     hash/rehash order; every site must prove (in a
                     suppression reason) that the fold is order-insensitive
                     or re-sorted by a total key
  observer-mutation  observer layers (trace/race/prof/sight) are pure: no
                     const_cast, no non-const SimContext/SimProc access
  decorator-latency  MemModel decorators outside src/mem/ must return the
                     inner model's latency unmodified on every hook
  raw-lock           builder lock sites must go through detail::maybe_lock so
                     --elide-locks fault injection stays total
  suppress-reason    a suppression without a reason string is itself a finding
  suppress-unknown   a suppression naming an unknown check is a finding

Suppression syntax (same line, or a comment line directly above):

    // ptblint: allow(unordered-iter) -- commutative += fold into sums

A reasonless allow() does NOT suppress — it is reported, and so is the
finding it failed to suppress.

This is the one lint engine: stdlib Python, lexical but comment/string-aware
with real scope tracking, so it runs anywhere the tests run. Its behaviour
on tests/lint/fixtures/ is the contract (see docs/LINT.md).

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

# --- policy: which checks apply where (paths relative to the repo root) -----

DETERMINISTIC_DIRS = ("src/sim", "src/mem", "src/treebuild", "src/bh", "src/rt",
                      "src/platform")
OBSERVER_DIRS = ("src/trace", "src/race", "src/prof", "src/sight", "src/anatomy")
BUILDER_DIRS = ("src/treebuild",)
MEM_DIR = "src/mem"  # protocol models live here; decorators must not

CHECKS = {
    "wall-clock": "host time/entropy source in deterministic code",
    "ptr-key-order": "pointer-keyed ordered container (address-order iteration)",
    "unordered-iter": "iteration over an unordered container",
    "observer-mutation": "observer layer mutates simulation state",
    "decorator-latency": "MemModel decorator perturbs the forwarded latency",
    "raw-lock": "builder lock site bypasses detail::maybe_lock",
    "addr-stream": "host address formatted into observable output",
    "suppress-reason": "suppression without a reason string",
    "suppress-unknown": "suppression names an unknown check",
}

LATENCY_HOOKS = {
    "on_read", "on_write", "on_rmw", "on_acquire", "on_release",
    "on_barrier_arrive", "on_barrier_depart", "on_atomic",
    "on_read_shared", "on_read_shared_span",
}

WALLCLOCK_PATTERNS = [
    (re.compile(r"\b(?:std\s*::\s*)?chrono\s*::\s*(system_clock|steady_clock|high_resolution_clock)\b"),
     "std::chrono::{0} is host wall time"),
    (re.compile(r"\b(system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"),
     "{0}::now() is host wall time"),
    (re.compile(r"\b(?:std\s*::\s*)?(random_device)\b"), "std::{0} is host entropy"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?(rand)\s*\(\s*\)"),
     "C {0}() draws from hidden global state"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?(srand|gettimeofday|clock_gettime|getrusage)\s*\("),
     "{0} reads host time/state"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?(time)\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "{0}() is host wall time"),
]

UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "do", "else"}


# --- comment/string-aware preprocessing -------------------------------------

def strip_code(text):
    """Returns `code`: text with comments, string and char literals replaced
    by spaces (newlines preserved), so pattern checks never fire on prose."""
    out = list(text)
    i, n = 0, len(text)
    NORMAL, LINE, BLOCK, STR, CHAR, RAW = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                # R"delim( ... )delim"
                j = i - 1
                while j >= 0 and text[j].isalnum():
                    j -= 1
                if i > 0 and text[i - 1] == "R" and (j < 0 or not text[j] == '"'):
                    m = re.match(r'R"([^(\s]*)\(', text[i - 1:i + 20])
                    if m:
                        state = RAW
                        raw_delim = ")" + m.group(1) + '"'
                        out[i] = " "
                        i += 1
                        continue
                state = STR
                out[i] = " "
                i += 1
                continue
            if c == "'":
                state = CHAR
                out[i] = " "
                i += 1
                continue
            i += 1
            continue
        if state == LINE:
            if c == "\n":
                state = NORMAL
            else:
                out[i] = " "
            i += 1
            continue
        if state == BLOCK:
            if c == "*" and nxt == "/":
                state = NORMAL
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == STR:
            if c == "\\":
                out[i] = " "
                if nxt and nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                out[i] = " "
                state = NORMAL
            elif c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == CHAR:
            if c == "\\":
                out[i] = " "
                if nxt and nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == "'":
                out[i] = " "
                state = NORMAL
            elif c != "\n":
                out[i] = " "
            i += 1
            continue
        if state == RAW:
            if text.startswith(raw_delim, i):
                for k in range(len(raw_delim)):
                    out[i + k] = " "
                i += len(raw_delim)
                state = NORMAL
                continue
            if c != "\n":
                out[i] = " "
            i += 1
            continue
    return "".join(out)


# --- scope tracking ---------------------------------------------------------

class Scope:
    __slots__ = ("name", "kind", "qualifier", "start", "end", "derives_memmodel")

    def __init__(self, name, kind, qualifier, start, derives_memmodel=False):
        self.name = name       # function/class name, or None for plain blocks
        self.kind = kind       # "function" | "class" | "block"
        self.qualifier = qualifier  # Foo for `Foo::bar(...)`, else None
        self.start = start     # offset of the opening brace
        self.end = None        # offset of the closing brace
        self.derives_memmodel = derives_memmodel

    def contains(self, offset):
        end = self.end if self.end is not None else 1 << 62
        return self.start <= offset <= end


QUAL_NAME_RE = re.compile(r"(?:([A-Za-z_]\w*)\s*::\s*)?([A-Za-z_~]\w*)\s*$")
CLASS_HEADER_RE = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)")


def scan_scopes(code):
    """Brace-matching pass over comment-stripped code: records function and
    class scopes with their brace spans."""
    scopes = []
    stack = []
    header_start = 0
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c in ";}":
            header_start = i + 1
            if c == "}" and stack:
                sc = stack.pop()
                sc.end = i
            i += 1
            continue
        if c == "{":
            sc = classify_header(code[header_start:i], i)
            if sc.kind in ("function", "class"):
                scopes.append(sc)
            stack.append(sc)
            header_start = i + 1
            i += 1
            continue
        i += 1
    return scopes


def classify_header(header, brace_offset):
    """Decides what the brace following `header` opens."""
    h = header.strip()
    block = Scope(None, "block", None, brace_offset)
    if not h:
        return block
    # Aggregate/array initializers and braced return values.
    if re.search(r"[=]\s*$", h) or re.search(r"\breturn\b", h):
        return block
    if re.search(r"\b(?:class|struct|union|enum|namespace)\b", h) \
            and "(" not in h.split("::")[-1]:
        cm = CLASS_HEADER_RE.search(h)
        if cm and not re.search(r"\benum\b|\bnamespace\b", h):
            derives = re.search(r":\s*[^;{]*\bMemModel\b", h) is not None
            return Scope(cm.group(1), "class", None, brace_offset, derives)
        return block
    if "(" not in h:
        return block
    # Find the identifier (and optional Foo:: qualifier) before the first
    # top-level '(' — angle brackets from template headers are skipped.
    depth = 0
    first_paren = -1
    k = 0
    while k < len(h):
        ch = h[k]
        if ch in "<([":
            if ch == "(" and depth == 0:
                first_paren = k
                break
            depth += 1
        elif ch in ">)]":
            depth = max(0, depth - 1)
        k += 1
    if first_paren < 0:
        return block
    name_m = QUAL_NAME_RE.search(h[:first_paren])
    if not name_m:
        return block  # lambda `[...](...)` or similar
    qualifier, name = name_m.group(1), name_m.group(2)
    if name in CONTROL_KEYWORDS:
        return block
    return Scope(name, "function", qualifier, brace_offset)


def enclosing_scope(scopes, offset, kind):
    best = None
    for sc in scopes:
        if sc.kind == kind and sc.contains(offset):
            if best is None or sc.start > best.start:
                best = sc
    return best


def enclosing_function(scopes, offset):
    sc = enclosing_scope(scopes, offset, "function")
    return sc.name if sc else None


# --- suppression directives -------------------------------------------------

ALLOW_RE = re.compile(r"ptblint:\s*allow\(([^)]*)\)\s*(?:--\s*(\S.*))?")
PATH_RE = re.compile(r"ptblint-path:\s*(\S+)")


class Suppression:
    __slots__ = ("checks", "reason", "line", "target_line")

    def __init__(self, checks, reason, line, target_line):
        self.checks = checks
        self.reason = reason
        self.line = line              # 1-based line of the directive
        self.target_line = target_line  # 1-based line it suppresses


def parse_directives(raw_lines, code_lines):
    """Finds ptblint directives. A directive on a line with code applies to
    that line; a directive on a comment-only line applies to the next line
    carrying code."""
    sups = []
    vpath = None
    for idx, raw in enumerate(raw_lines):
        pm = PATH_RE.search(raw)
        if pm:
            vpath = pm.group(1)
        m = ALLOW_RE.search(raw)
        if not m:
            continue
        checks = [c.strip() for c in m.group(1).split(",") if c.strip()]
        reason = m.group(2).strip() if m.group(2) else None
        lineno = idx + 1
        if code_lines[idx].strip():
            target = lineno
        else:
            target = lineno
            for j in range(idx + 1, len(code_lines)):
                if code_lines[j].strip():
                    target = j + 1
                    break
        sups.append(Suppression(checks, reason, lineno, target))
    return sups, vpath


# --- the check engine -------------------------------------------------------

class Finding:
    def __init__(self, check, file, line, col, message):
        self.check = check
        self.file = file
        self.line = line
        self.col = col
        self.message = message
        self.suppressed = False
        self.reason = None

    def as_json(self):
        return {
            "check": self.check,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }


class FileContext:
    def __init__(self, real_path, rel_path, text):
        self.real_path = real_path
        self.text = text
        self.code = strip_code(text)
        self.raw_lines = text.splitlines()
        self.code_lines = self.code.splitlines()
        self.sups, vpath = parse_directives(self.raw_lines, self.code_lines)
        self.policy_path = vpath if vpath else rel_path
        self.rel_path = rel_path
        self.scopes = scan_scopes(self.code)
        # Classes declared in THIS file as deriving from MemModel. Whether a
        # class is a decorator (outside src/mem) is decided by the policy
        # path of its declaration, so the global set carries that bit.
        self.memmodel_classes = {
            sc.name for sc in self.scopes
            if sc.kind == "class" and sc.derives_memmodel}
        # offset of the start of each line, for offset->line mapping
        self.line_offsets = []
        off = 0
        for ln in self.code.splitlines(keepends=True):
            self.line_offsets.append(off)
            off += len(ln)

    def in_dirs(self, dirs):
        return any(self.policy_path.startswith(d.rstrip("/") + "/")
                   or self.policy_path == d for d in dirs)

    def line_of_offset(self, off):
        lo, hi = 0, len(self.line_offsets) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_offsets[mid] <= off:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1


def unordered_decl_names(ctx):
    """Identifiers declared with an unordered container type in this file."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(ctx.code):
        # angle-match from the '<'
        i = m.end() - 1
        depth = 0
        n = len(ctx.code)
        while i < n:
            c = ctx.code[i]
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        tail = ctx.code[i + 1:i + 120]
        nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:[;={(,)]|$)", tail)
        if nm:
            names.add(nm.group(1))
    return names


def template_args(s):
    """Splits the inside of one <...> at top-level commas."""
    args, depth, cur = [], 0, []
    for c in s:
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        if c == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    if cur:
        args.append("".join(cur).strip())
    return args


def check_wall_clock(ctx, out):
    if not ctx.in_dirs(DETERMINISTIC_DIRS):
        return
    for idx, line in enumerate(ctx.code_lines):
        seen_spans = []
        for pat, msg in WALLCLOCK_PATTERNS:
            for m in pat.finditer(line):
                # `std::chrono::steady_clock::now()` matches both the type
                # and the ::now patterns: report each source once.
                if any(m.start() < e and s < m.end() for s, e in seen_spans):
                    continue
                seen_spans.append((m.start(), m.end()))
                out.append(Finding(
                    "wall-clock", ctx.rel_path, idx + 1, m.start() + 1,
                    msg.format(m.group(1)) +
                    "; deterministic code must take time from the virtual "
                    "clock and entropy from ptb::Rng(seed)"))


def check_ptr_key(ctx, out):
    if not ctx.in_dirs(DETERMINISTIC_DIRS):
        return
    for m in re.finditer(r"\bstd\s*::\s*(map|set)\s*<", ctx.code):
        i = m.end() - 1
        depth, n = 0, len(ctx.code)
        start = i + 1
        while i < n:
            c = ctx.code[i]
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        args = template_args(ctx.code[start:i])
        if not args:
            continue
        key = args[0]
        comparator_given = (m.group(1) == "map" and len(args) >= 3) or \
                           (m.group(1) == "set" and len(args) >= 2)
        if key.endswith("*") and not comparator_given:
            line = ctx.line_of_offset(m.start())
            out.append(Finding(
                "ptr-key-order", ctx.rel_path, line,
                m.start() - ctx.line_offsets[line - 1] + 1,
                f"std::{m.group(1)} keyed by a raw pointer iterates in "
                "allocation-address order, which varies run to run; key by a "
                "stable id or pass an explicit deterministic comparator"))


def check_unordered_iter(ctx, out, global_names):
    if not (ctx.in_dirs(DETERMINISTIC_DIRS) or ctx.in_dirs(OBSERVER_DIRS)):
        return
    names = global_names | unordered_decl_names(ctx)
    for idx, line in enumerate(ctx.code_lines):
        for fm in RANGE_FOR_RE.finditer(line):
            rest = line[fm.end():]
            cm = re.search(r":\s*([^)]*)", rest)
            if not cm:
                continue
            range_expr = cm.group(1)
            hit = None
            if "unordered_" in range_expr:
                hit = "an unordered container"
            else:
                for nm in names:
                    if re.search(r"(?:\.|->|\b)" + re.escape(nm) + r"\b", range_expr):
                        hit = f"`{nm}` (declared std::unordered_*)"
                        break
            if hit:
                out.append(Finding(
                    "unordered-iter", ctx.rel_path, idx + 1, fm.start() + 1,
                    f"range-for over {hit}: iteration order is hash/rehash "
                    "dependent; sort into a total order first, or suppress "
                    "with a reason proving the fold is order-insensitive"))
        for nm in names:
            bm = re.search(r"\b" + re.escape(nm) + r"\s*\.\s*(?:begin|cbegin)\s*\(", line)
            if bm:
                out.append(Finding(
                    "unordered-iter", ctx.rel_path, idx + 1, bm.start() + 1,
                    f"iterator over `{nm}` (declared std::unordered_*): order "
                    "is hash/rehash dependent"))


def check_observer(ctx, out):
    if not ctx.in_dirs(OBSERVER_DIRS):
        return
    for idx, line in enumerate(ctx.code_lines):
        m = re.search(r"\bconst_cast\b", line)
        if m:
            out.append(Finding(
                "observer-mutation", ctx.rel_path, idx + 1, m.start() + 1,
                "const_cast in an observer layer: the hook arguments are "
                "const because observers must not write into simulation-owned "
                "memory"))
        for m in re.finditer(r"\bSim(?:Context|Proc)\b", line):
            tail = line[m.end():]
            tm = re.match(r"\s*[&*]", tail)
            if not tm:
                continue
            before = line[:m.start()].rstrip()
            if before.endswith("const"):
                continue
            out.append(Finding(
                "observer-mutation", ctx.rel_path, idx + 1, m.start() + 1,
                "non-const SimContext/SimProc handle in an observer layer: "
                "observers are pure — they may only read state the simulator "
                "already computed (take `const SimContext&`)"))


def body_of(ctx, scope):
    end = scope.end if scope.end is not None else len(ctx.code)
    return ctx.code[scope.start + 1:end], scope.start + 1


INNER_CALL_RE = re.compile(r"\binner_?\s*->\s*(on_\w+)\s*\(")


def check_decorator(ctx, out, decorator_classes):
    if ctx.policy_path.startswith(MEM_DIR.rstrip("/") + "/"):
        return
    if not ctx.policy_path.startswith("src/"):
        return
    for sc in ctx.scopes:
        if sc.name not in LATENCY_HOOKS:
            continue
        # Whose hook is this? An explicit `Foo::on_x` qualifier (out-of-line
        # definition) or the enclosing class body. Only classes known to
        # derive from MemModel outside src/mem/ are decorators; a free
        # function that happens to be called on_read is not.
        owner = sc.qualifier
        if owner is None:
            cls = enclosing_scope(ctx.scopes, sc.start, "class")
            owner = cls.name if cls else None
        body, base = body_of(ctx, sc)
        inner_calls = list(INNER_CALL_RE.finditer(body))
        if owner not in decorator_classes and not inner_calls:
            continue
        line = ctx.line_of_offset(sc.start)
        if not inner_calls:
            out.append(Finding(
                "decorator-latency", ctx.rel_path, line, 1,
                f"{sc.name} in a MemModel decorator never forwards to the "
                "inner model: every access path must return the inner "
                "latency unmodified (synthesizing latency perturbs virtual "
                "time)"))
            continue
        for call in inner_calls:
            # Span of the full call expression.
            i = call.end() - 1
            depth = 0
            while i < len(body):
                if body[i] == "(":
                    depth += 1
                elif body[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            after = body[i + 1:i + 8].lstrip()
            before = body[:call.start()].rstrip()
            call_line = ctx.line_of_offset(base + call.start())
            if after[:2] in ("+=", "-=", "*=", "/=", "%="):
                pass  # handled by variable rules below
            elif after[:1] in "+-*/%":
                out.append(Finding(
                    "decorator-latency", ctx.rel_path, call_line, 1,
                    f"arithmetic on the latency forwarded from inner->"
                    f"{call.group(1)}: decorators must return it unmodified"))
                continue
            if before.endswith(("+", "-", "*", "/", "%")):
                out.append(Finding(
                    "decorator-latency", ctx.rel_path, call_line, 1,
                    f"arithmetic on the latency forwarded from inner->"
                    f"{call.group(1)}: decorators must return it unmodified"))
                continue
            # Discarded result: statement-position call in a latency hook.
            if (before.endswith((";", "{", "}")) or before == "") and \
                    re.search(r"\breturn\b", body):
                stmt_ret = re.match(r"\s*;", body[i + 1:])
                if stmt_ret:
                    out.append(Finding(
                        "decorator-latency", ctx.rel_path, call_line, 1,
                        f"result of inner->{call.group(1)} is discarded while "
                        "the hook returns something else: the inner latency "
                        "must be the returned value"))
                    continue
            # Assigned to a variable: that variable must not be modified.
            am = re.search(r"([A-Za-z_]\w*)\s*=\s*$", before)
            if am:
                var = am.group(1)
                rest = body[i + 1:]
                mod = re.search(
                    r"\b" + re.escape(var) + r"\s*(?:[+\-*/%]=|=(?!=)\s*(?!"
                    + re.escape(var) + r"\s*;))", rest)
                if mod:
                    out.append(Finding(
                        "decorator-latency", ctx.rel_path,
                        ctx.line_of_offset(base + i + 1 + mod.start()), 1,
                        f"`{var}` holds the latency forwarded from inner->"
                        f"{call.group(1)} but is modified before being "
                        "returned"))
                    continue
                ret = re.search(r"\breturn\b([^;]*)\b" + re.escape(var) + r"\b([^;]*);", rest)
                if ret and re.search(r"[+\-*/%]", ret.group(1) + ret.group(2)):
                    out.append(Finding(
                        "decorator-latency", ctx.rel_path,
                        ctx.line_of_offset(base + i + 1 + ret.start()), 1,
                        f"return applies arithmetic to `{var}`, the latency "
                        f"forwarded from inner->{call.group(1)}"))


def check_addr_stream(ctx, out):
    """Host addresses printed into reports/JSON vary across processes under
    ASLR, breaking the bit-identical-output contract (the class of bug PR 1
    fixed in HLRC addressing and the race reports' lock@0x fallback had)."""
    if not (ctx.in_dirs(DETERMINISTIC_DIRS) or ctx.in_dirs(OBSERVER_DIRS)):
        return
    for idx, raw in enumerate(ctx.raw_lines):
        code = ctx.code_lines[idx] if idx < len(ctx.code_lines) else ""
        if "(" in code:
            m = re.search(r'"(?:[^"\\]|\\.)*%p', raw)
            if m:
                out.append(Finding(
                    "addr-stream", ctx.rel_path, idx + 1, m.start() + 1,
                    "%p formats a host address into output; report a "
                    "region+offset or a virtual-time intern id instead"))
        m = re.search(r"<<\s*reinterpret_cast\s*<\s*(?:std\s*::\s*)?u?intptr_t\s*>", code)
        if m:
            out.append(Finding(
                "addr-stream", ctx.rel_path, idx + 1, m.start() + 1,
                "streaming a pointer cast to an integer publishes a host "
                "address; report a region+offset or an intern id instead"))
        for m in re.finditer(r"std\s*::\s*hex\s*<<\s*([A-Za-z_]\w*)\b", code):
            var = m.group(1)
            if re.search(r"\*\s*(?:const\s+)?" + re.escape(var) + r"\b", ctx.code) or \
                    re.search(r"\b" + re.escape(var) + r"\s*=\s*reinterpret_cast", ctx.code):
                out.append(Finding(
                    "addr-stream", ctx.rel_path, idx + 1, m.start() + 1,
                    f"`{var}` is pointer-derived and streamed in hex: host "
                    "addresses vary across processes under ASLR; report a "
                    "region+offset or an intern id instead"))


def check_raw_lock(ctx, out):
    if not ctx.in_dirs(BUILDER_DIRS):
        return
    for m in re.finditer(r"(?:\.|->)\s*(lock|unlock)\s*\(", ctx.code):
        fn = enclosing_function(ctx.scopes, m.start())
        if fn in ("maybe_lock", "maybe_unlock"):
            continue
        line = ctx.line_of_offset(m.start())
        out.append(Finding(
            "raw-lock", ctx.rel_path, line,
            m.start() - ctx.line_offsets[line - 1] + 1,
            f"direct .{m.group(1)}() in a builder: go through "
            "detail::maybe_lock/maybe_unlock so --elide-locks fault "
            "injection covers every synchronization site"))


def apply_suppressions(ctx, findings, out):
    """Marks findings suppressed, and emits the meta findings for bad
    suppressions."""
    for sup in ctx.sups:
        unknown = [c for c in sup.checks if c not in CHECKS]
        for c in unknown:
            out.append(Finding(
                "suppress-unknown", ctx.rel_path, sup.line, 1,
                f"allow({c}) names an unknown check; known checks: "
                + ", ".join(sorted(CHECKS))))
        if sup.reason is None:
            out.append(Finding(
                "suppress-reason", ctx.rel_path, sup.line, 1,
                "suppression without a reason: write `// ptblint: "
                "allow(<check>) -- <why this site is safe>` (a reasonless "
                "allow suppresses nothing)"))
            continue
        for f in findings:
            if f.file == ctx.rel_path and f.line == sup.target_line \
                    and f.check in sup.checks:
                f.suppressed = True
                f.reason = sup.reason


def collect_files(root, paths):
    files = []
    if not paths:
        paths = [os.path.join(root, "src")]
    for p in paths:
        if os.path.isdir(p):
            for dirpath, _dirnames, filenames in os.walk(p):
                for fn in sorted(filenames):
                    if fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                        files.append(os.path.join(dirpath, fn))
        else:
            files.append(p)
    files.sort()
    return files


def main(argv):
    ap = argparse.ArgumentParser(
        prog="ptblint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: <root>/src)")
    ap.add_argument("--root", default=None,
                    help="repo root for path policy (default: auto-detected "
                         "from this script's location)")
    ap.add_argument("--json", metavar="OUT", default=None,
                    help="write machine-readable findings (\"-\" for stdout)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the per-finding text report")
    args = ap.parse_args(argv)

    if args.list_checks:
        for k in sorted(CHECKS):
            print(f"{k:20s} {CHECKS[k]}")
        return 0

    root = os.path.abspath(args.root) if args.root else \
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    files = collect_files(root, args.paths)

    # First pass: gather cross-file facts. (a) unordered-container member
    # names declared anywhere in the scanned set, so iteration over a member
    # declared in a sibling header is still caught in the .cpp; (b) MemModel
    # subclasses declared outside src/mem/ — their out-of-line `Foo::on_x`
    # definitions are decorator hooks wherever they appear.
    global_unordered = set()
    decorator_classes = set()
    ctxs = []
    for f in files:
        rel = os.path.relpath(f, root)
        try:
            with open(f, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError as e:
            print(f"ptblint: cannot read {f}: {e}", file=sys.stderr)
            return 2
        ctx = FileContext(f, rel, text)
        ctxs.append(ctx)
        if ctx.in_dirs(DETERMINISTIC_DIRS) or ctx.in_dirs(OBSERVER_DIRS):
            global_unordered |= unordered_decl_names(ctx)
        if ctx.policy_path.startswith("src/") and \
                not ctx.policy_path.startswith(MEM_DIR.rstrip("/") + "/"):
            decorator_classes |= ctx.memmodel_classes

    findings = []
    for ctx in ctxs:
        fs = []
        check_wall_clock(ctx, fs)
        check_ptr_key(ctx, fs)
        check_unordered_iter(ctx, fs, global_unordered)
        check_observer(ctx, fs)
        check_decorator(ctx, fs, decorator_classes)
        check_addr_stream(ctx, fs)
        check_raw_lock(ctx, fs)
        meta = []
        apply_suppressions(ctx, fs, meta)
        findings.extend(fs + meta)

    findings.sort(key=lambda f: (f.file, f.line, f.check))
    unsuppressed = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]

    if not args.quiet:
        for f in unsuppressed:
            print(f"{f.file}:{f.line}:{f.col}: [{f.check}] {f.message}")
        print(f"ptblint: {len(files)} files, {len(findings)} findings "
              f"({len(suppressed)} suppressed, {len(unsuppressed)} unsuppressed)")

    if args.json:
        by_check = {}
        for f in findings:
            d = by_check.setdefault(f.check, {"total": 0, "suppressed": 0})
            d["total"] += 1
            d["suppressed"] += 1 if f.suppressed else 0
        doc = {
            "tool": "ptblint",
            "schema_version": 1,
            "engine": "python",
            "root": root,
            "files_scanned": len(files),
            "checks": sorted(CHECKS),
            "findings": [f.as_json() for f in findings],
            "counts": {
                "total": len(findings),
                "suppressed": len(suppressed),
                "unsuppressed": len(unsuppressed),
                "by_check": by_check,
            },
        }
        if args.json == "-":
            json.dump(doc, sys.stdout, indent=2)
            print()
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")

    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
