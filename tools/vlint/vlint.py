#!/usr/bin/env python3
"""V-lint: static analysis for the V-naming tree's concurrency and protocol
invariants (DESIGN.md 4j).

Five rules, each with a seeded must-fail fixture under tools/vlint/fixtures/:

  gate-generation     Every V_GATED_MUTATION hook calls note_name_write() on
                      every path before returning success; every call site of
                      a gated hook bumps the context generation (or is itself
                      a gated hook, or carries a justified suppression).
                      Every mutation-hook override in src/servers/ +
                      src/naming/csnh_server.cpp must carry the annotation.
  suspend-under-gate  No co_await of a sim::WaitQueue wait or a kernel
                      send/receive while a mutation-gate guard is held
                      (between `co_await <gate>` and the guard's scope end).
                      V_GATED_MUTATION bodies run under the gate, so the same
                      ban applies to them; V_NO_SUSPEND bodies must contain
                      no co_await at all.
  coro-param-lifetime No reference, std::span, or string_view parameter of a
                      Co<T> coroutine may be used after the first suspension
                      point unless the function is annotated V_BORROWS_SPAN.
                      Capturing-lambda coroutines are flagged here too.
  hot-path-alloc      V_HOT_PATH bodies must not reach operator new (except
                      placement `::new (`), make_unique/make_shared,
                      std::function construction, or node-based container
                      mutation; project functions they call must themselves
                      be V_HOT_PATH or explicitly allowed.
  wire-format         The CSname header offsets/widths in src/msg/csname.hpp
                      match the PROTOCOL.md section-2 table (and the accessor
                      widths match the table's u8/u16/u32 column); every
                      ReplyCode enumerator is decoded by to_string(); the
                      protocol lint's kMaxReplyCode tracks the enum.

The engine is a self-contained C++ micro-parser (tokenizer, brace tree,
per-function mini-CFG), so the pass runs on a GCC-only host.

Suppressions: `// vlint: allow(<rule>): <reason>` on the finding's line or
the line above.  A reason is mandatory.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import bisect
import os
import re
import sys

# --------------------------------------------------------------------------
# Rule ids
# --------------------------------------------------------------------------

RULE_GATE = "gate-generation"
RULE_SUSPEND = "suspend-under-gate"
RULE_CORO = "coro-param-lifetime"
RULE_HOT = "hot-path-alloc"
RULE_WIRE = "wire-format"
ALL_RULES = (RULE_GATE, RULE_SUSPEND, RULE_CORO, RULE_HOT, RULE_WIRE)

ANNOTATIONS = {"V_GATED_MUTATION", "V_HOT_PATH", "V_NO_SUSPEND",
               "V_BORROWS_SPAN"}

# The gated name-mutation hooks of naming::CsnhServer.  Every override in a
# server implementation file must be annotated V_GATED_MUTATION.
MUTATION_HOOKS = {
    "modify", "remove", "rename", "create_object", "make_context",
    "link_context", "add_context_name", "delete_context_name",
}

# Suspension constructs banned while a mutation gate is held: parking on a
# WaitQueue or entering the kernel send/receive path can deadlock the gate's
# FIFO (the waker may need the gate) and at minimum holds the gate across
# unbounded simulated time.
BANNED_UNDER_GATE = {"wait_on", "send", "send_to_group", "receive"}

# Reference-ish parameter types that are exempt from coro-param-lifetime:
# the kernel owns each ipc::Process for the whole lifetime of the fiber
# running it (kill-by-exception unwinds the frame before teardown), so
# `ipc::Process& self` is valid across every suspension by construction.
SAFE_REF_TYPES = {"Process"}

# Project functions the hot paths may call without carrying V_HOT_PATH
# themselves.  Keep this list short and justified.
HOT_ALLOWED_CALLS = {
    # compile-time/constexpr helpers: pure arithmetic on integers
    "mix",
}

NODE_CONTAINER_RE = re.compile(
    r"\bstd\s*::\s*(?:multi)?(?:map|set)\s*<|"
    r"\bstd\s*::\s*(?:forward_)?list\s*<|"
    r"\bstd\s*::\s*unordered_(?:multi)?(?:map|set)\s*<")

NODE_MUTATORS = {
    "insert", "emplace", "emplace_hint", "emplace_back", "emplace_front",
    "erase", "push_back", "push_front", "pop_back", "pop_front", "clear",
    "splice", "merge", "extract", "try_emplace", "insert_or_assign",
    "resize", "assign",
}

KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "co_return", "co_await", "co_yield", "break", "continue",
    "goto", "try", "catch", "throw", "new", "delete", "sizeof", "alignof",
    "decltype", "static_assert", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "using", "typedef", "template",
    "typename", "class", "struct", "enum", "union", "namespace", "public",
    "private", "protected", "friend", "virtual", "explicit", "inline",
    "constexpr", "consteval", "constinit", "static", "extern", "mutable",
    "operator", "this", "nullptr", "true", "false", "auto", "void", "bool",
    "char", "short", "int", "long", "float", "double", "unsigned", "signed",
    "const", "volatile", "noexcept", "override", "final", "requires",
    "concept", "co_await",
}

REJECT_LEAD = {"return", "co_return", "co_await", "co_yield", "throw", "=",
               "?", "new", "delete", "else", "case", "goto", ".", "->"}

TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*|0[xX][0-9a-fA-F']+|\d[\w.']*|::|->\*?|\+\+|--|<<=|>>=|"
    r"<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|\.\.\.|"
    r"[-+*/%&|^!~<>=?:;,.(){}\[\]#]")

SUPPRESS_RE = re.compile(r"vlint:\s*allow\(([\w-]+)\)\s*:\s*\S")

IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")


def is_ident(t):
    return bool(IDENT_RE.match(t))


class Finding:
    __slots__ = ("rule", "path", "line", "msg")

    def __init__(self, rule, path, line, msg):
        self.rule, self.path, self.line, self.msg = rule, path, line, msg

    def format(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


class Tok:
    __slots__ = ("text", "line")

    def __init__(self, text, line):
        self.text, self.line = text, line


# --------------------------------------------------------------------------
# Source preparation: comment/string stripping, directives
# --------------------------------------------------------------------------

def strip_comments_strings(src):
    """Blank comments, string and char literals (preserving newlines) and
    collect `// vlint: allow(rule): reason` suppressions per line."""
    out = []
    supp = {}
    i, n = 0, len(src)
    line = 1
    while i < n:
        c = src[i]
        if c == "\n":
            out.append(c)
            line += 1
            i += 1
        elif c == "/" and i + 1 < n and src[i + 1] == "/":
            j = src.find("\n", i)
            if j < 0:
                j = n
            m = SUPPRESS_RE.search(src[i:j])
            if m:
                supp.setdefault(line, set()).add(m.group(1))
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and src[i + 1] == "*":
            j = src.find("*/", i + 2)
            j = n if j < 0 else j + 2
            seg = src[i:j]
            m = SUPPRESS_RE.search(seg)
            if m:
                supp.setdefault(line, set()).add(m.group(1))
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            line += seg.count("\n")
            i = j
        elif c == '"':
            if (out and "".join(out[-1:]).endswith("R")) or \
                    (i > 0 and src[i - 1] == "R"):
                k = src.find("(", i)
                delim = src[i + 1:k]
                end = src.find(")" + delim + '"', k)
                end = n if end < 0 else end + len(delim) + 2
                seg = src[i:end]
                out.append("".join(ch if ch == "\n" else " " for ch in seg))
                line += seg.count("\n")
                i = end
            else:
                j = i + 1
                while j < n and src[j] != '"':
                    if src[j] == "\\":
                        j += 1
                    j += 1
                j = min(j + 1, n)
                out.append(" " * (j - i))
                i = j
        elif c == "'":
            j = i + 1
            while j < n and src[j] != "'":
                if src[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            # Keep digit separators (1'000) intact: a lone quote after a
            # digit is part of a numeric literal, not a char literal.
            if i > 0 and src[i - 1].isdigit():
                out.append(c)
                i += 1
            else:
                out.append(" " * (j - i))
                i = j
        else:
            out.append(c)
            i += 1
    return "".join(out), supp


def process_directives(clean):
    """Blank preprocessor lines (with their continuations) out of `clean`.
    Every branch of a conditional stays visible: the rules see all the code
    any configuration compiles."""
    out_lines = []
    in_continuation = False
    for text in clean.split("\n"):
        if in_continuation or text.lstrip().startswith("#"):
            in_continuation = text.rstrip().endswith("\\")
            out_lines.append("")
        else:
            out_lines.append(text)
    return "\n".join(out_lines)


def tokenize(text):
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    toks = []
    for m in TOKEN_RE.finditer(text):
        line = bisect.bisect_right(starts, m.start())
        toks.append(Tok(m.group(0), line))
    return toks


class ParsedFile:
    def __init__(self, path, src):
        self.path = path
        clean, self.supp = strip_comments_strings(src)
        clean = process_directives(clean)
        self.clean = clean
        self.toks = tokenize(clean)
        self.funcs = extract_functions(self)

    def suppressed(self, rule, line):
        return (rule in self.supp.get(line, ()) or
                rule in self.supp.get(line - 1, ()))


# --------------------------------------------------------------------------
# Function extraction
# --------------------------------------------------------------------------

class Func:
    __slots__ = ("pf", "name", "qual", "ann", "lead", "line",
                 "param_s", "param_e", "body_s", "body_e")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)

    @property
    def is_coro(self):
        if "Co" not in self.lead:
            return False
        toks = self.pf.toks
        for i in range(self.body_s, self.body_e):
            if toks[i].text in ("co_await", "co_return", "co_yield"):
                return True
        return False


def match_forward(toks, i, open_t, close_t):
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return None


def _scan_ctor_init(toks, k):
    """Scan a constructor init list starting after ':'; return the index of
    the body '{' or None."""
    n = len(toks)
    depth = 0
    while k < n:
        t = toks[k].text
        if t in ("(", "["):
            depth += 1
        elif t in (")", "]"):
            depth -= 1
        elif t == "{" and depth == 0:
            prev = toks[k - 1].text
            if is_ident(prev) or prev == ">":
                k = match_forward(toks, k, "{", "}")
                if k is None:
                    return None
            else:
                return k
        elif t == ";":
            return None
        k += 1
    return None


def _try_function(pf, i):
    toks = pf.toks
    n = len(toks)
    j = i - 1
    if j < 0:
        return None
    tj = toks[j].text
    popen = i
    if tj == "operator":
        if i + 2 < n and toks[i + 1].text == ")" and toks[i + 2].text == "(":
            name, name_start, popen = "operator()", j, i + 2
        else:
            return None
    elif tj == "]" and j >= 2 and toks[j - 1].text == "[" and \
            toks[j - 2].text == "operator":
        name, name_start = "operator[]", j - 2
    elif is_ident(tj) and tj not in KEYWORDS:
        name, name_start = tj, j
        while name_start >= 2 and toks[name_start - 1].text == "::" and \
                is_ident(toks[name_start - 2].text):
            name_start -= 2
        if name_start >= 1 and toks[name_start - 1].text == "~":
            name_start -= 1
    elif not is_ident(tj) and j >= 1 and toks[j - 1].text == "operator":
        name, name_start = "operator" + tj, j - 1
    else:
        return None

    pclose = match_forward(toks, popen, "(", ")")
    if pclose is None:
        return None

    k = pclose + 1
    body_open = None
    while k < n:
        t = toks[k].text
        if t == "{":
            body_open = k
            break
        if t in (";", "}", "="):
            return None
        if t == ":":
            body_open = _scan_ctor_init(toks, k + 1)
            break
        if t == "(":
            k = match_forward(toks, k, "(", ")")
            if k is None:
                return None
            k += 1
            continue
        if is_ident(t) or t in ("const", "noexcept", "override", "final",
                                "&", "&&", "->", "::", "<", ">", ",", "*",
                                "[", "]", "requires", "mutable", "try"):
            k += 1
            continue
        return None
    if body_open is None:
        return None
    body_close = match_forward(toks, body_open, "{", "}")
    if body_close is None:
        return None

    lead = []
    s = name_start - 1
    while s >= 0:
        t = toks[s].text
        if t in (";", "{", "}", ":", "(", ",", "#"):
            break
        if t in REJECT_LEAD:
            return None
        lead.append(t)
        s -= 1
    lead.reverse()

    qual = "".join(toks[x].text for x in range(name_start, i)
                   ) if name != tj else name
    if name.startswith("operator"):
        qual = name
    else:
        qual = "".join(toks[x].text
                       for x in range(name_start, popen))
    ann = set(lead) & ANNOTATIONS
    return Func(pf=pf, name=name, qual=qual, ann=ann, lead=lead,
                line=toks[name_start].line, param_s=popen + 1,
                param_e=pclose, body_s=body_open + 1, body_e=body_close)


def extract_functions(pf):
    toks = pf.toks
    funcs = []
    i = 0
    n = len(toks)
    while i < n:
        if toks[i].text != "(":
            i += 1
            continue
        fn = _try_function(pf, i)
        if fn is not None:
            funcs.append(fn)
            i = fn.body_e + 1
        else:
            i += 1
    return funcs


# --------------------------------------------------------------------------
# Shared indexes
# --------------------------------------------------------------------------

class Index:
    def __init__(self, parsed_files):
        self.files = parsed_files
        self.by_name = {}
        for pf in parsed_files:
            for f in pf.funcs:
                self.by_name.setdefault(f.name, []).append(f)
        self.node_members = set()
        decl_re = re.compile(r">\s*&?\s*([A-Za-z_]\w*)\s*(?:=[^;]*)?;")
        for pf in parsed_files:
            for m in NODE_CONTAINER_RE.finditer(pf.clean):
                close = _match_angle(pf.clean, pf.clean.find("<", m.start()))
                if close is None:
                    continue
                dm = decl_re.match(pf.clean, close)
                if dm:
                    self.node_members.add(dm.group(1))


def _match_angle(text, i):
    depth = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i
        elif c == ";":
            return None
        i += 1
    return None


def load_failure_codes(reply_hpp_text):
    """All ReplyCode enumerators except kOk, plus the enumerator->value map."""
    m = re.search(r"enum\s+class\s+ReplyCode[^{]*\{(.*?)\}", reply_hpp_text,
                  re.S)
    codes = {}
    if m:
        block = re.sub(r"//[^\n]*", "", m.group(1))
        value = 0
        for em in re.finditer(r"(k\w+)\s*(?:=\s*(\d+))?", block):
            if em.group(2) is not None:
                value = int(em.group(2))
            codes[em.group(1)] = value
            value += 1
    return codes


# --------------------------------------------------------------------------
# Rule 1: gate-generation
# --------------------------------------------------------------------------

def _read_branch(toks, s, e):
    """Return (branch_start, branch_end, next_index) for an if/else branch
    starting at s: either a braced block or a single statement."""
    if s < e and toks[s].text == "{":
        close = match_forward(toks, s, "{", "}")
        if close is None:
            return s, e, e
        return s + 1, close, close + 1
    depth = 0
    i = s
    while i < e:
        t = toks[i].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == ";" and depth == 0:
            return s, i + 1, i + 1
        i += 1
    return s, e, e


def rule_gate(index, failure_codes, findings):
    failure_names = {k for k in failure_codes if k != "kOk"}
    annotated_hooks = set()
    for pf in index.files:
        for f in pf.funcs:
            if "V_GATED_MUTATION" in f.ann:
                annotated_hooks.add(f.name)

    for pf in index.files:
        path = pf.path.replace(os.sep, "/")
        in_scope = ("/servers/" in path or "src/servers/" in path or
                    path.endswith("naming/csnh_server.cpp") or
                    "fixtures" in path)
        for f in pf.funcs:
            if (in_scope and f.name in MUTATION_HOOKS and "::" in f.qual and
                    "V_GATED_MUTATION" not in f.ann):
                if not pf.suppressed(RULE_GATE, f.line):
                    findings.append(Finding(
                        RULE_GATE, pf.path, f.line,
                        f"mutation hook '{f.qual}' is not annotated "
                        "V_GATED_MUTATION"))
            if "V_GATED_MUTATION" in f.ann:
                _gate_walk(pf, f, failure_names, findings)

    # Call-site check: whoever invokes a gated hook owns the generation bump
    # on its success path (or is itself a gated hook delegating).
    for pf in index.files:
        for g in pf.funcs:
            toks = pf.toks
            has_bump = any(toks[i].text == "bump_generation"
                           for i in range(g.body_s, g.body_e))
            for i in range(g.body_s, g.body_e - 1):
                t = toks[i].text
                if t not in annotated_hooks or toks[i + 1].text != "(":
                    continue
                if i > 0 and toks[i - 1].text in (".", "->", "::"):
                    continue
                if g.name == t:
                    continue
                if "V_GATED_MUTATION" in g.ann or has_bump:
                    continue
                if pf.suppressed(RULE_GATE, toks[i].line):
                    continue
                findings.append(Finding(
                    RULE_GATE, pf.path, toks[i].line,
                    f"call of gated mutation hook '{t}' in '{g.qual}', "
                    "which neither bumps the context generation nor is a "
                    "gated hook itself"))


def _gate_walk(pf, f, failure_names, findings):
    toks = pf.toks

    def is_potential_success(expr):
        if not expr:
            return True
        if "kOk" in expr:
            return True
        if any(t in failure_names for t in expr):
            return False
        return True

    def walk(s, e, noted):
        i = s
        while i < e:
            t = toks[i].text
            if t == "note_name_write":
                noted = True
                i += 1
                continue
            if t in ("co_return", "return"):
                j = i + 1
                depth = 0
                expr = []
                while j < e:
                    tj = toks[j].text
                    if tj in ("(", "[", "{"):
                        depth += 1
                    elif tj in (")", "]", "}"):
                        depth -= 1
                    elif tj == ";" and depth == 0:
                        break
                    expr.append(tj)
                    j += 1
                if not noted and is_potential_success(expr):
                    if not pf.suppressed(RULE_GATE, toks[i].line):
                        findings.append(Finding(
                            RULE_GATE, pf.path, toks[i].line,
                            f"'{f.qual}' can return success without having "
                            "called note_name_write on this path"))
                i = j + 1
                continue
            if t == "if" and i + 1 < e and toks[i + 1].text == "(":
                cclose = match_forward(toks, i + 1, "(", ")")
                if cclose is None:
                    i += 1
                    continue
                b1s, b1e, nxt = _read_branch(toks, cclose + 1, e)
                noted1 = walk(b1s, b1e, noted)
                if nxt < e and toks[nxt].text == "else":
                    b2s, b2e, nxt2 = _read_branch(toks, nxt + 1, e)
                    noted2 = walk(b2s, b2e, noted)
                    noted = noted1 and noted2
                    i = nxt2
                else:
                    i = nxt
                continue
            if t in ("for", "while") and i + 1 < e and \
                    toks[i + 1].text == "(":
                cclose = match_forward(toks, i + 1, "(", ")")
                if cclose is None:
                    i += 1
                    continue
                bs, be, nxt = _read_branch(toks, cclose + 1, e)
                walk(bs, be, noted)
                i = nxt
                continue
            if t == "{":
                close = match_forward(toks, i, "{", "}")
                if close is None:
                    i += 1
                    continue
                noted = walk(i + 1, close, noted)
                i = close + 1
                continue
            i += 1
        return noted

    walk(f.body_s, f.body_e, False)


# --------------------------------------------------------------------------
# Rule 2: suspend-under-gate
# --------------------------------------------------------------------------

def _statement_end(toks, i, e):
    depth = 0
    while i < e:
        t = toks[i].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == ";" and depth == 0:
            return i
        i += 1
    return e


def rule_suspend(index, findings):
    for pf in index.files:
        toks = pf.toks
        for f in pf.funcs:
            if "V_NO_SUSPEND" in f.ann:
                for i in range(f.body_s, f.body_e):
                    if toks[i].text == "co_await":
                        if not pf.suppressed(RULE_SUSPEND, toks[i].line):
                            findings.append(Finding(
                                RULE_SUSPEND, pf.path, toks[i].line,
                                f"suspension point in V_NO_SUSPEND "
                                f"function '{f.qual}'"))
            # Gate guards held in this body: live from `co_await <gate>` to
            # the end of the guard's declaration scope.
            live = []
            brace_stack = []
            gates = {}  # var name -> decl scope end
            for i in range(f.body_s, f.body_e):
                t = toks[i].text
                if t == "{":
                    close = match_forward(toks, i, "{", "}")
                    brace_stack.append(close if close is not None
                                       else f.body_e)
                elif t == "}":
                    if brace_stack:
                        brace_stack.pop()
                elif t == "GateLock" and i + 1 < f.body_e and \
                        is_ident(toks[i + 1].text):
                    scope_end = brace_stack[-1] if brace_stack else f.body_e
                    gates[toks[i + 1].text] = scope_end
                elif t == "co_await" and i + 1 < f.body_e and \
                        toks[i + 1].text in gates:
                    live.append((i, gates[toks[i + 1].text]))
            under_gate_whole_body = "V_GATED_MUTATION" in f.ann
            for i in range(f.body_s, f.body_e):
                if toks[i].text != "co_await":
                    continue
                in_gate = under_gate_whole_body or any(
                    a < i < b for a, b in live)
                if not in_gate:
                    continue
                end = _statement_end(toks, i, f.body_e)
                for j in range(i + 1, end):
                    if toks[j].text in BANNED_UNDER_GATE and \
                            j + 1 < f.body_e and toks[j + 1].text == "(":
                        if not pf.suppressed(RULE_SUSPEND, toks[j].line):
                            findings.append(Finding(
                                RULE_SUSPEND, pf.path, toks[j].line,
                                f"co_await of '{toks[j].text}' while a "
                                f"mutation gate is held in '{f.qual}'"))
                        break


# --------------------------------------------------------------------------
# Rule 3: coro-param-lifetime
# --------------------------------------------------------------------------

def _split_params(toks, s, e):
    params = []
    depth = 0
    cur = []
    for i in range(s, e):
        t = toks[i].text
        if t in ("(", "[", "{", "<"):
            depth += 1
        elif t in (")", "]", "}", ">"):
            depth -= 1
        elif t == "," and depth == 0:
            params.append(cur)
            cur = []
            continue
        cur.append(t)
    if cur:
        params.append(cur)
    return params


def _risky_param(tokens):
    """Return the parameter name if the type is a reference, span, or
    string_view; None otherwise (or if the parameter is unnamed/safe)."""
    if not tokens:
        return None
    if any(t in SAFE_REF_TYPES for t in tokens):
        return None
    risky = ("&" in tokens or "&&" in tokens or "span" in tokens or
             "string_view" in tokens)
    if not risky:
        return None
    # Drop a default argument, then the name is the trailing identifier.
    if "=" in tokens:
        tokens = tokens[:tokens.index("=")]
    if tokens and is_ident(tokens[-1]) and tokens[-1] not in KEYWORDS:
        return tokens[-1]
    return None


def rule_coro(index, findings):
    for pf in index.files:
        toks = pf.toks
        for f in pf.funcs:
            _lambda_coros(pf, f, findings)
            if not f.is_coro or "V_BORROWS_SPAN" in f.ann:
                continue
            first = None
            for i in range(f.body_s, f.body_e):
                if toks[i].text in ("co_await", "co_yield"):
                    first = i
                    break
            if first is None:
                continue
            boundary = _statement_end(toks, first, f.body_e)
            # If the first suspension is inside a loop, the loop header is
            # the boundary: iteration 2 uses anything in the loop after a
            # suspension.
            boundary = min(boundary, _enclosing_loop_start(toks, f, first))
            names = [n for n in
                     (_risky_param(p) for p in
                      _split_params(toks, f.param_s, f.param_e))
                     if n is not None]
            for name in names:
                for i in range(boundary, f.body_e):
                    if toks[i].text == name:
                        if not pf.suppressed(RULE_CORO, toks[i].line):
                            findings.append(Finding(
                                RULE_CORO, pf.path, toks[i].line,
                                f"borrowed parameter '{name}' of coroutine "
                                f"'{f.qual}' used after a suspension point "
                                "(annotate V_BORROWS_SPAN if the caller "
                                "guarantees the referent outlives every "
                                "co_await)"))
                        break


def _enclosing_loop_start(toks, f, pos):
    best = f.body_e
    i = f.body_s
    while i < pos:
        t = toks[i].text
        if t in ("for", "while", "do"):
            kw = i
            if t == "do":
                body = i + 1
            else:
                if i + 1 >= f.body_e or toks[i + 1].text != "(":
                    i += 1
                    continue
                cclose = match_forward(toks, i + 1, "(", ")")
                if cclose is None:
                    i += 1
                    continue
                body = cclose + 1
            bs, be, _ = _read_branch(toks, body, f.body_e)
            if bs <= pos < be:
                best = min(best, kw)
                i = bs
                continue
            i = be
            continue
        i += 1
    return best


LAMBDA_START_PREV = {"(", ",", "=", "return", ";", "{", "}", "co_return",
                     "co_await", "&&", "||", "?", ":"}


def _lambda_coros(pf, f, findings):
    toks = pf.toks
    i = f.body_s
    while i < f.body_e:
        if toks[i].text != "[":
            i += 1
            continue
        prev = toks[i - 1].text if i > 0 else ";"
        if prev not in LAMBDA_START_PREV:
            i += 1
            continue
        close = match_forward(toks, i, "[", "]")
        if close is None or close == i + 1:
            i += 1
            continue
        if toks[i + 1].text == "[":  # [[attribute]]
            i = close + 1
            continue
        # captures are non-empty; find the lambda body brace
        k = close + 1
        if k < f.body_e and toks[k].text == "(":
            k = match_forward(toks, k, "(", ")")
            if k is None:
                i = close + 1
                continue
            k += 1
        depth = 0
        body_open = None
        while k < f.body_e:
            t = toks[k].text
            if t == "{" and depth == 0:
                body_open = k
                break
            if t in ("(", "<"):
                depth += 1
            elif t in (")", ">"):
                depth -= 1
            elif t in (";", ","):
                break
            k += 1
        if body_open is None:
            i = close + 1
            continue
        body_close = match_forward(toks, body_open, "{", "}")
        if body_close is None:
            i = close + 1
            continue
        for j in range(body_open + 1, body_close):
            if toks[j].text in ("co_await", "co_return", "co_yield"):
                if not pf.suppressed(RULE_CORO, toks[i].line):
                    findings.append(Finding(
                        RULE_CORO, pf.path, toks[i].line,
                        f"capturing lambda in '{f.qual}' is a coroutine: "
                        "captures die with the temporary closure at the "
                        "first suspension"))
                break
        i = body_close + 1


# --------------------------------------------------------------------------
# Rule 4: hot-path-alloc
# --------------------------------------------------------------------------

def rule_hot(index, findings):
    hot_names = {f.name for pf in index.files for f in pf.funcs
                 if "V_HOT_PATH" in f.ann}
    for pf in index.files:
        toks = pf.toks
        for f in pf.funcs:
            if "V_HOT_PATH" not in f.ann:
                continue
            for i in range(f.body_s, f.body_e):
                tok = toks[i]
                t = tok.text
                nxt = toks[i + 1].text if i + 1 < f.body_e else ""
                prev = toks[i - 1].text if i > f.body_s else ""

                def flag(msg, line=None):
                    line = line if line is not None else tok.line
                    if not pf.suppressed(RULE_HOT, line):
                        findings.append(Finding(RULE_HOT, pf.path, line,
                                                msg + f" in V_HOT_PATH "
                                                f"'{f.qual}'"))

                if t == "new":
                    if not (prev == "::" and nxt == "("):
                        flag("operator new")
                    continue
                if t in ("make_unique", "make_shared") and nxt in ("<", "("):
                    flag(f"std::{t} allocation")
                    continue
                if t == "function" and prev == "::" and \
                        i >= 2 and toks[i - 2].text == "std":
                    flag("std::function construction")
                    continue
                if t in index.node_members:
                    if nxt == "[":
                        flag(f"node-based container mutation "
                             f"('{t}[...]')")
                        continue
                    if nxt in (".", "->") and i + 2 < f.body_e and \
                            toks[i + 2].text in NODE_MUTATORS and \
                            i + 3 < f.body_e and toks[i + 3].text == "(":
                        flag(f"node-based container mutation "
                             f"('{t}.{toks[i + 2].text}')")
                        continue
                if (is_ident(t) and t not in KEYWORDS and nxt == "(" and
                        prev not in (".", "->") and t in index.by_name and
                        t != f.name and t not in HOT_ALLOWED_CALLS and
                        t not in hot_names):
                    flag(f"call of project function '{t}' which is not "
                         "V_HOT_PATH")


# --------------------------------------------------------------------------
# Rule 5: wire-format
# --------------------------------------------------------------------------

PROTOCOL_FIELD_TO_CONST = {
    "request code": "kOffCode",
    "name index": "kOffNameIndex",
    "name length": "kOffNameLength",
    "mode": "kOffMode",
    "forward count": "kOffForwardCount",
    "context id": "kOffContextId",
    "expected generation": "kOffExpectedGen",
    "csname flags": "kOffCsFlags",
}

SIZE_BYTES = {"u8": 1, "u16": 2, "u32": 4}


def rule_wire(paths, findings):
    """paths: dict with optional keys protocol, csname, reply_hpp,
    reply_cpp, lint_hpp, lint_cpp mapping to file paths."""

    def read(key):
        p = paths.get(key)
        if p and os.path.isfile(p):
            with open(p, encoding="utf-8", errors="replace") as fh:
                return p, fh.read()
        return None, None

    proto_path, proto = read("protocol")
    cs_path, cs = read("csname")
    if proto and cs:
        doc = {}
        row_re = re.compile(
            r"^\|\s*(\d+)(?:\s*[–-]\s*\d+)?\s*\|\s*(u8|u16|u32|—|-)\s*\|"
            r"\s*(.+?)\s*\|\s*$", re.M)
        for m in row_re.finditer(proto):
            field = re.split(r"\s+[—–-]\s+", m.group(3))[0].strip().lower()
            if field in PROTOCOL_FIELD_TO_CONST:
                doc[PROTOCOL_FIELD_TO_CONST[field]] = (
                    int(m.group(1)), SIZE_BYTES.get(m.group(2)))
        consts = {m.group(1): (int(m.group(2)), m.start())
                  for m in re.finditer(
                      r"constexpr\s+std::size_t\s+(kOff\w+)\s*=\s*(\d+)",
                      cs)}
        widths = {}
        for m in re.finditer(r"\bu16\s*\(\s*(kOff\w+)|"
                             r"\bset_u16\s*\(\s*(kOff\w+)", cs):
            widths.setdefault(m.group(1) or m.group(2), set()).add(2)
        for m in re.finditer(r"\bu32\s*\(\s*(kOff\w+)|"
                             r"\bset_u32\s*\(\s*(kOff\w+)", cs):
            widths.setdefault(m.group(1) or m.group(2), set()).add(4)
        for m in re.finditer(r"raw\s*\(\s*\)\s*\[\s*(kOff\w+)\s*\]", cs):
            widths.setdefault(m.group(1), set()).add(1)
        for const, (off, size) in doc.items():
            if const not in consts:
                findings.append(Finding(
                    RULE_WIRE, cs_path, 1,
                    f"PROTOCOL.md documents {const} at offset {off} but "
                    "the constant is not defined"))
                continue
            have, pos = consts[const]
            line = cs.count("\n", 0, pos) + 1
            if have != off:
                findings.append(Finding(
                    RULE_WIRE, cs_path, line,
                    f"{const} = {have} but PROTOCOL.md documents offset "
                    f"{off}"))
            used = widths.get(const)
            if size and used and used != {size}:
                findings.append(Finding(
                    RULE_WIRE, cs_path, line,
                    f"{const} accessed with width(s) "
                    f"{sorted(used)} but PROTOCOL.md documents "
                    f"{size} byte(s)"))

    rh_path, rh = read("reply_hpp")
    rc_path, rc = read("reply_cpp")
    codes = load_failure_codes(rh) if rh else {}
    if codes and rc:
        for code in codes:
            if not re.search(r"case\s+ReplyCode\s*::\s*" + code + r"\b",
                             rc):
                findings.append(Finding(
                    RULE_WIRE, rc_path, 1,
                    f"ReplyCode::{code} has no case in the to_string "
                    "decoder"))
    lh_path, lh = read("lint_hpp")
    lc_path, lc = read("lint_cpp")
    max_code = max(codes, key=lambda k: codes[k]) if codes else None
    if codes and lh:
        m = re.search(r"kMaxReplyCode\s*=\s*static_cast<[^>]*>\s*"
                      r"\(\s*v?\s*(?:::)?\s*ReplyCode::(k\w+)\s*\)", lh)
        if m and m.group(1) != max_code:
            findings.append(Finding(
                RULE_WIRE, lh_path, lh.count("\n", 0, m.start()) + 1,
                f"kMaxReplyCode is ReplyCode::{m.group(1)} but the highest "
                f"enumerator is ReplyCode::{max_code}"))
    if codes and lc:
        m = re.search(r"static_assert\s*\(\s*kMaxReplyCode\s*==\s*(\d+)",
                      lc)
        if m and int(m.group(1)) != max(codes.values()):
            findings.append(Finding(
                RULE_WIRE, lc_path, lc.count("\n", 0, m.start()) + 1,
                f"protocol lint pins kMaxReplyCode == {m.group(1)} but the "
                f"highest ReplyCode value is {max(codes.values())}"))


# --------------------------------------------------------------------------
# Drivers
# --------------------------------------------------------------------------

def collect_sources(root, compdb=None):
    files = []
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for fn in sorted(filenames):
            if fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                files.append(os.path.join(dirpath, fn))
    if compdb:
        import json
        with open(compdb, encoding="utf-8") as fh:
            entries = json.load(fh)
        tu = {os.path.realpath(e["file"]) for e in entries}
        files = [f for f in files
                 if f.endswith((".hpp", ".h")) or os.path.realpath(f) in tu]
    return files


def parse_files(paths):
    parsed = []
    for p in paths:
        with open(p, encoding="utf-8", errors="replace") as fh:
            parsed.append(ParsedFile(p, fh.read()))
    return parsed


def analyze(cpp_paths, wire_paths, root="."):
    findings = []
    parsed = parse_files(cpp_paths)
    index = Index(parsed)
    reply_hpp = wire_paths.get("reply_hpp")
    failure_codes = {}
    if reply_hpp and os.path.isfile(reply_hpp):
        with open(reply_hpp, encoding="utf-8") as fh:
            failure_codes = load_failure_codes(fh.read())
    rule_gate(index, failure_codes, findings)
    rule_suspend(index, findings)
    rule_coro(index, findings)
    rule_hot(index, findings)
    rule_wire(wire_paths, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def tree_wire_paths(root):
    return {
        "protocol": os.path.join(root, "docs/PROTOCOL.md"),
        "csname": os.path.join(root, "src/msg/csname.hpp"),
        "reply_hpp": os.path.join(root, "src/common/reply_codes.hpp"),
        "reply_cpp": os.path.join(root, "src/common/reply_codes.cpp"),
        "lint_hpp": os.path.join(root, "src/chk/protocol_lint.hpp"),
        "lint_cpp": os.path.join(root, "src/chk/protocol_lint.cpp"),
    }


def fixture_wire_paths(fix_dir):
    names = {
        "protocol": "PROTOCOL.md", "csname": "csname.hpp",
        "reply_hpp": "reply_codes.hpp", "reply_cpp": "reply_codes.cpp",
        "lint_hpp": "protocol_lint.hpp", "lint_cpp": "protocol_lint.cpp",
    }
    return {k: os.path.join(fix_dir, v) for k, v in names.items()
            if os.path.isfile(os.path.join(fix_dir, v))}


def analyze_fixture(fix_dir):
    wire = fixture_wire_paths(fix_dir)
    skip = {os.path.basename(p) for p in wire.values()}
    cpp = [os.path.join(fix_dir, fn) for fn in sorted(os.listdir(fix_dir))
           if fn.endswith((".cpp", ".hpp")) and fn not in skip]
    return analyze(cpp, wire)


def check_fixtures(fixtures_root):
    ok = True
    dirs = sorted(d for d in os.listdir(fixtures_root)
                  if os.path.isdir(os.path.join(fixtures_root, d)))
    if not dirs:
        print("vlint: no fixtures found", file=sys.stderr)
        return False
    for d in dirs:
        fix_dir = os.path.join(fixtures_root, d)
        expect_path = os.path.join(fix_dir, "EXPECT")
        if not os.path.isfile(expect_path):
            print(f"vlint: fixture {d}: missing EXPECT file",
                  file=sys.stderr)
            ok = False
            continue
        with open(expect_path, encoding="utf-8") as fh:
            expected = {ln.strip() for ln in fh
                        if ln.strip() and not ln.startswith("#")}
        findings = analyze_fixture(fix_dir)
        got = {f.rule for f in findings}
        missing = expected - got
        if missing:
            print(f"FAIL fixture {d}: expected rule(s) "
                  f"{sorted(missing)} did not fire; findings:")
            for f in findings:
                print("  " + f.format())
            ok = False
        else:
            print(f"ok   fixture {d}: {sorted(expected)} fired "
                  f"({len(findings)} finding(s))")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(prog="vlint", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--compdb",
                    help="compile_commands.json: restrict .cpp scanning to "
                         "its translation units")
    ap.add_argument("--fixture", metavar="DIR",
                    help="analyze one fixture directory instead of the tree")
    ap.add_argument("--check-fixtures", action="store_true",
                    help="assert every seeded fixture fails with its "
                         "expected rule")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in ALL_RULES:
            print(r)
        return 0

    here = os.path.dirname(os.path.abspath(__file__))
    if args.check_fixtures:
        return 0 if check_fixtures(os.path.join(here, "fixtures")) else 1

    if args.fixture:
        findings = analyze_fixture(args.fixture)
    else:
        cpp = collect_sources(args.root, args.compdb)
        findings = analyze(cpp, tree_wire_paths(args.root), args.root)

    for f in findings:
        print(f.format())
    if findings:
        print(f"vlint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("vlint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
