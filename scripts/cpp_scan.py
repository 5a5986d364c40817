#!/usr/bin/env python3
"""Lightweight C++ source scanning for scripts/lint_determinism.py.

A comment/string-stripping scanner plus a brace-scope walker that
classifies every brace pair as namespace / class / enum /
function-or-other scope.

Nothing here is a full C++ parser; it is a deliberately small textual
model that the codebase's style (clang-format, brace member
initializers, no macros hiding braces) keeps honest, and that the
fixture corpus under tests/lint_fixtures/ pins.
"""

import re


def strip_code(text):
    """Blank out comments, string and char literals, preserving line
    structure, so rule regexes never match inside them.  Returns the
    stripped text."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated; keep line structure
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def strip_preproc(text):
    """Blank preprocessor directives (including backslash-continued
    macro bodies), preserving line structure.  Used where macro
    definitions would read as file-scope declarations."""
    out = []
    cont = False
    for line in text.split("\n"):
        is_pp = cont or line.lstrip().startswith("#")
        cont = is_pp and line.rstrip().endswith("\\")
        out.append(" " * len(line) if is_pp else line)
    return "\n".join(out)


class Scope:
    """One brace pair: text[open_idx] == '{', text[close_idx] == '}'
    (close_idx == len(text) when unbalanced).  kind is 'namespace',
    'class', 'enum' or 'other' (function bodies, control flow,
    initializers — anything statement-like)."""

    def __init__(self, kind, open_idx, parent):
        self.kind = kind
        self.open_idx = open_idx
        self.close_idx = None
        self.parent = parent  # index into the scopes list, or None


_HEAD_TYPE_RE = re.compile(
    r"^\s*(?:template\s*<[^{}]*>\s*)?"
    r"(?:class|struct|union)\b")
_HEAD_ENUM_RE = re.compile(r"^\s*enum\b")
_HEAD_NS_RE = re.compile(r"^\s*(?:inline\s+)?namespace\b")


def brace_scopes(stripped):
    """Classify every brace pair of comment-stripped text.

    Returns a list of Scope in opening order.  Classification looks at
    the 'head' — the text between the previous ';', '{' or '}' and the
    opening brace.
    """
    scopes = []
    stack = []
    head_start = 0
    for i, c in enumerate(stripped):
        if c in ";":
            head_start = i + 1
        elif c == "{":
            head = stripped[head_start:i]
            if _HEAD_NS_RE.match(head):
                kind = "namespace"
            elif _HEAD_TYPE_RE.match(head):
                kind = "class"
            elif _HEAD_ENUM_RE.match(head):
                kind = "enum"
            else:
                kind = "other"
            parent = stack[-1] if stack else None
            scopes.append(Scope(kind, i, parent))
            stack.append(len(scopes) - 1)
            head_start = i + 1
        elif c == "}":
            if stack:
                scopes[stack.pop()].close_idx = i
            head_start = i + 1
    for s in scopes:  # unbalanced input: close at EOF
        if s.close_idx is None:
            s.close_idx = len(stripped)
    return scopes


def scope_kind_at(scopes, idx):
    """Innermost meaningful scope kind at character @p idx: 'class',
    'namespace', 'enum', 'function' (any 'other'-chain rooted in a
    non-class scope), or 'file'."""
    best = None
    for s in scopes:
        if s.open_idx < idx < s.close_idx:
            if best is None or s.open_idx > best.open_idx:
                best = s
    while best is not None and best.kind == "other":
        best = scopes[best.parent] if best.parent is not None else None
        if best is None:
            return "function"  # other-chain at file scope: statement-like
        if best.kind == "other":
            continue
        if best.kind in ("namespace",):
            return "function"  # a brace statement inside a namespace
        return best.kind if best.kind != "class" else "function"
    if best is None:
        return "file"
    return best.kind


def collapse_angles(s):
    """Remove balanced template-argument lists so member parens inside
    e.g. std::function<void()> stop looking like parameter lists."""
    prev = None
    while prev != s:
        prev = s
        s = re.sub(r"<[^<>]*>", "", s)
    return s
