#!/usr/bin/env python3
"""Determinism lint for the Garibaldi simulator.

The repo guarantees byte-identical output across reruns and --jobs
values.  That property is easy to break silently: iterate an unordered
container into an output stream, read the wall clock, order anything by
pointer value, or accumulate a counter in floating point.  This lint
flags the source patterns that historically cause such breaks:

  unordered-iteration  range-for / .begin() iteration over a
                       std::unordered_map or std::unordered_set
                       declared in the same file or its sibling header.
                       Iteration order is libstdc++-internal and can
                       change with load factor or pointer layout.
  raw-entropy          rand()/srand()/drand48()/std::random_device/
                       std::mt19937 outside src/common/rng — all
                       randomness must flow through the seeded
                       SplitMix64 Rng so runs replay.
  wall-clock           time()/clock()/gettimeofday()/clock_gettime()/
                       std::chrono clocks in simulation code.  Timing
                       must derive from the simulated clock; wall time
                       is allowed only in bench/ and examples/ drivers
                       that measure host throughput.
  pointer-ordering     std::map/std::set keyed on a pointer, std::less
                       over pointers, or reinterpret_cast to
                       (u)intptr_t — address-dependent ordering differs
                       across runs under ASLR.
  float-counter        a float/double variable with a counter-style
                       name (+= accumulation in the same file).
                       Counters must be integral; float accumulation
                       order is not associative.
  static-mutable       a function-local static or file/namespace-scope
                       static variable that is not const/constexpr.
                       Hidden mutable statics are a replay hazard (state
                       leaks across runs in one process, and across
                       sweep jobs sharing the process); such state
                       must be hoisted into an owner object.

Suppression: a finding is waived by an annotation on the same line or
the line directly above:

    // determinism-lint: allow(<rule-id>) <justification>

The justification is mandatory; a bare allow() is itself a finding.

Usage: lint_determinism.py [--list-rules] <file-or-dir>...
Exit status: 0 when clean, 1 when findings (or bad usage).
"""

import os
import re
import sys

from cpp_scan import (brace_scopes, collapse_angles, scope_kind_at,
                      strip_code, strip_preproc)

RULES = (
    "unordered-iteration",
    "raw-entropy",
    "wall-clock",
    "pointer-ordering",
    "float-counter",
    "static-mutable",
)

EXTS = (".cc", ".hh", ".cpp", ".hpp", ".h")

# Paths (substring match on the normalized relative path) where wall
# clocks are legitimate: host-throughput benches and example drivers.
WALL_CLOCK_EXEMPT = ("bench/", "examples/")

# Files implementing the sanctioned RNG itself.
ENTROPY_EXEMPT = ("src/common/rng.hh", "src/common/rng.cc")

# Host-side drivers may keep static state (bench scaffolding, example
# option tables); simulation code may not.
STATIC_MUTABLE_SKIP = ("bench/", "examples/")

# The warn_once/warn_every_n macro bodies expand to a function-local
# static std::atomic at every call site.  Those atomics are internally
# synchronized, feed stderr rate-limiting only, and never reach
# simulated output — but a comment cannot live inside a backslash-
# continued macro body, so the waiver is this path exemption instead of
# an inline allow().
STATIC_MUTABLE_EXEMPT = ("src/common/logging.hh",)

ALLOW_RE = re.compile(
    r"//\s*determinism-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

COUNTER_NAME_RE = re.compile(
    r"(?i)(count|cycles|hits|misses|stall|accesses|instr|reads|"
    r"writes|retired|evict|merges|windows|bytes)")


def collect_allows(raw_lines):
    """Map line number -> (rule, justification) for every annotation."""
    allows = {}
    for ln, line in enumerate(raw_lines, 1):
        m = ALLOW_RE.search(line)
        if m:
            allows[ln] = (m.group(1), m.group(2).strip())
    return allows


def unordered_names(stripped):
    """Identifiers declared as std::unordered_{map,set} members or
    locals in this (stripped) translation unit."""
    names = set()
    for m in re.finditer(
            r"\bstd\s*::\s*unordered_(?:map|set)\s*<", stripped):
        # Walk the template argument list to its matching '>'.
        depth = 1
        j = m.end()
        while j < len(stripped) and depth:
            if stripped[j] == "<":
                depth += 1
            elif stripped[j] == ">":
                depth -= 1
            j += 1
        decl = re.match(r"\s*([A-Za-z_]\w*)\s*[;={(]", stripped[j:])
        if decl:
            names.add(decl.group(1))
    return names


class Finding:
    def __init__(self, path, line, rule, msg):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.msg)


def scan_rule(findings, path, stripped_lines, rule, pattern, msg):
    rx = re.compile(pattern)
    for ln, line in enumerate(stripped_lines, 1):
        if rx.search(line):
            findings.append(Finding(path, ln, rule, msg))


def static_mutable_scan(findings, path, rel, stripped):
    """Flag non-const statics at function, file, or namespace scope.
    Class-scope statics (member declarations, method declarations) are
    the class's business."""
    if any(x in rel for x in STATIC_MUTABLE_SKIP):
        return
    if any(rel.endswith(x) for x in STATIC_MUTABLE_EXEMPT):
        return
    # Scope classification on preproc-blanked text so an #include
    # preamble never pollutes a scope head; the scan itself stays on
    # `stripped` so statics in macro bodies remain visible (they read
    # as file scope, which is exactly the hazard).
    scopes = brace_scopes(strip_preproc(stripped))
    for m in re.finditer(r"\bstatic\s+", stripped):
        idx = m.start()
        if scope_kind_at(scopes, idx) in ("class", "enum"):
            continue
        end = stripped.find(";", idx)
        if end == -1:
            end = len(stripped)
        stmt = stripped[idx:min(end, idx + 400)]
        # Declarator head: everything before any initializer.
        head = re.split(r"[={]", stmt, 1)[0]
        if re.search(r"\b(?:const|constexpr|constinit)\b", head):
            continue
        head = collapse_angles(head)
        head = re.sub(r"\bSIM_\w+\s*\([^()]*\)", "", head)
        if "(" in head:
            # Function declaration/definition.  (Ctor-paren variable
            # initializers also land here — the codebase's brace-init
            # style keeps that blind spot empty.)
            continue
        findings.append(Finding(
            path, stripped.count("\n", 0, idx) + 1, "static-mutable",
            "mutable static state is shared across all callers and "
            "every run in the process: a replay hazard; make it const "
            "or hoist it into an owner object"))


def lint_file(path, rel, sibling_unordered):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        return [Finding(path, 0, "io", str(e))]

    raw_lines = raw.splitlines()
    allows = collect_allows(raw_lines)
    stripped = strip_code(raw)
    lines = stripped.splitlines()
    findings = []

    # -- unordered-iteration -------------------------------------------
    names = unordered_names(stripped) | sibling_unordered
    if names:
        name_alt = "|".join(re.escape(n) for n in sorted(names))
        iter_rx = re.compile(
            r"(?::\s*(?:%(n)s)\s*\))"          # range-for  : name)
            r"|(?:\b(?:%(n)s)\s*\.\s*(?:begin|cbegin|rbegin)\s*\()"
            % {"n": name_alt})
        for ln, line in enumerate(lines, 1):
            if iter_rx.search(line):
                findings.append(Finding(
                    path, ln, "unordered-iteration",
                    "iteration over an unordered container; order is "
                    "implementation-defined and may reach output"))

    # -- raw-entropy ---------------------------------------------------
    if not any(rel.endswith(x) for x in ENTROPY_EXEMPT):
        scan_rule(findings, path, lines, "raw-entropy",
                  r"(?:\b(?:rand|srand|drand48|lrand48|random)\s*\()"
                  r"|(?:\bstd\s*::\s*(?:random_device|mt19937(?:_64)?|"
                  r"default_random_engine|minstd_rand0?)\b)",
                  "raw entropy source; use the seeded Rng in "
                  "src/common/rng instead")

    # -- wall-clock ----------------------------------------------------
    if not any(x in rel for x in WALL_CLOCK_EXEMPT):
        scan_rule(findings, path, lines, "wall-clock",
                  r"(?:\bstd\s*::\s*chrono\s*::\s*(?:system_clock|"
                  r"steady_clock|high_resolution_clock)\b)"
                  r"|(?:\bgettimeofday\s*\()"
                  r"|(?:\bclock_gettime\s*\()"
                  r"|(?:\btime\s*\(\s*(?:NULL|nullptr|0|&|\)))"
                  r"|(?:\bclock\s*\(\s*\))",
                  "wall-clock read in simulation code; derive timing "
                  "from the simulated clock")

    # -- pointer-ordering ----------------------------------------------
    scan_rule(findings, path, lines, "pointer-ordering",
              r"(?:\bstd\s*::\s*(?:map|set|multimap|multiset)\s*<"
              r"[^<>,]*\*)"
              r"|(?:\bstd\s*::\s*less\s*<[^<>]*\*)"
              r"|(?:\breinterpret_cast\s*<\s*(?:std\s*::\s*)?"
              r"u?intptr_t\b)",
              "ordering or arithmetic on pointer values differs per "
              "run under ASLR")

    # -- float-counter -------------------------------------------------
    decl_rx = re.compile(
        r"^\s*(?:static\s+|mutable\s+|constexpr\s+)*"
        r"(?:float|double)\s+([A-Za-z_]\w*)\s*(?:=|;|\{)")
    float_names = set()
    for line in lines:
        m = decl_rx.match(line)
        if m and COUNTER_NAME_RE.search(m.group(1)):
            float_names.add(m.group(1))
    if float_names:
        acc_rx = re.compile(
            r"\b(%s)\s*\+=" % "|".join(
                re.escape(n) for n in sorted(float_names)))
        for ln, line in enumerate(lines, 1):
            if acc_rx.search(line):
                findings.append(Finding(
                    path, ln, "float-counter",
                    "floating-point accumulation into a counter; "
                    "use an integral counter (float addition is not "
                    "associative)"))

    # -- static-mutable ------------------------------------------------
    static_mutable_scan(findings, path, rel, stripped)

    # -- apply allow() annotations -------------------------------------
    kept = []
    for f in findings:
        waived = False
        for ln in (f.line, f.line - 1):
            a = allows.get(ln)
            if a and a[0] == f.rule:
                if not a[1]:
                    kept.append(Finding(
                        path, ln, f.rule,
                        "allow() without a justification"))
                waived = True
                break
        if not waived:
            kept.append(f)

    # Unknown rule names in annotations are themselves findings: a typo
    # would otherwise silently fail to suppress anything.
    for ln, (rule, _) in sorted(allows.items()):
        if rule not in RULES:
            kept.append(Finding(
                path, ln, "bad-allow",
                "allow(%s) names no known rule (known: %s)"
                % (rule, ", ".join(RULES))))
    return kept


def sibling_header_unordered(path):
    """Unordered container names declared in the paired header of a
    .cc file (optgen.cc iterates a map declared in optgen.hh)."""
    stem, ext = os.path.splitext(path)
    if ext not in (".cc", ".cpp"):
        return set()
    for hext in (".hh", ".hpp", ".h"):
        hdr = stem + hext
        if os.path.isfile(hdr):
            try:
                with open(hdr, encoding="utf-8",
                          errors="replace") as f:
                    return unordered_names(strip_code(f.read()))
            except OSError:
                return set()
    return set()


def gather(targets):
    files = []
    for t in targets:
        if os.path.isdir(t):
            for root, dirs, names in os.walk(t):
                dirs.sort()
                for n in sorted(names):
                    if n.endswith(EXTS):
                        files.append(os.path.join(root, n))
        elif os.path.isfile(t):
            files.append(t)
        else:
            print("lint_determinism: no such path: %s" % t,
                  file=sys.stderr)
            sys.exit(1)
    return files


def main(argv):
    args = argv[1:]
    if "--list-rules" in args:
        print("\n".join(RULES))
        return 0
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    findings = []
    for path in gather(args):
        rel = os.path.relpath(path).replace(os.sep, "/")
        findings.extend(
            lint_file(path, rel, sibling_header_unordered(path)))
    for f in findings:
        print(f)
    if findings:
        print("lint_determinism: %d finding(s)" % len(findings),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
