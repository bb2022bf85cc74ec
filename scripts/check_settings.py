#!/usr/bin/env python3
"""Settings audit: every config field must have a setter in a program.

Scans the config structs under src/ (names ending in _config, _options,
_params, _costs, _context or _timing) and lists each field that nothing
in src/, bench/ or perfbench/ sets. In the struct's own files (its
header and the .cpp of the same stem) a setter on a member copy
(`cfg_.f = v`) does not count: that is the component adjusting its own
settings, not a program choosing one. A field only tests set is a
constant in disguise: give it a name beside its user instead. Fields
kept on purpose sit in ALLOWED with a one-line reason.

The match is by field name, so a setter of a same-named field in
another struct counts for both; the audit can miss a dead field but
never flags a live one. Setters it recognises: `x.f = v` (and compound
assignment), `.f = v` designated initializers, `x.f{...}`, `x.f.g = v`,
`x.f.push_back(...)` and the like, and `&x.f`.

Usage: scripts/check_settings.py [--list]
  --list  print every field with its setter status
Exit 0 when every unset field is allowlisted, 1 otherwise (also when an
allowlist entry names no unset field, so the list cannot go stale).
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
STRUCT_RE = re.compile(
    r"^\s*struct\s+(\w+(?:_config|_options|_params|_costs|_context|_timing))"
    r"\s*\{", re.M)
PROGRAM_DIRS = ("src", "bench", "perfbench")
SOURCE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")

# struct::field -> why it stays a setting although only tests set it.
ALLOWED = {
    "bluescale_config::responses":
        "ideal_latency is the reference model test_bluescale_ic checks the "
        "demux network against, and a planned fuzz axis",
    "processor_retry_config::timeout_cycles":
        "processor retry counters appear in fig7's --metrics; kept for "
        "fault campaigns on processors",
    "fig7_config::util_step":
        "the determinism and golden suites walk a coarser utilization grid "
        "to stay fast; the golden values pin that grid's points",
}


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def struct_body(text, open_brace):
    """Text between the struct's braces (open_brace indexes the '{')."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1:i]
    raise ValueError("unbalanced struct")


def top_level_statements(body):
    """Statements at the body's own nesting level; nested bodies are
    replaced by {} so a method or nested type stays one statement."""
    out, cur, depth = [], [], 0
    for ch in body:
        if ch == "{":
            if depth == 0:
                cur.append("{}")
            depth += 1
            continue
        if ch == "}":
            depth -= 1
            if depth == 0 and not "".join(cur).strip().startswith(
                    ("struct", "class", "enum", "union")) and \
                    "=" not in "".join(cur) and "(" in "".join(cur):
                # a function body ends the statement without a ';'
                out.append("".join(cur))
                cur = []
            continue
        if depth > 0:
            continue
        if ch == ";":
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    return [s.strip() for s in out if s.strip()]


def field_names(statement):
    s = re.sub(r"\s+", " ", statement).strip()
    s = re.sub(r"^(public|private|protected)\s*:\s*", "", s)
    if not s or s.startswith(("static", "using", "friend", "template",
                              "struct", "class", "enum", "union",
                              "typedef")):
        return []
    s = re.sub(r"\[\[[^\]]*\]\]\s*", "", s)
    # Drop the initializer: everything from a top-level '=' or '{}'.
    depth, cut = 0, len(s)
    for i, ch in enumerate(s):
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        elif depth == 0 and (ch == "=" or s[i:i + 2] == "{}"):
            cut = i
            break
    decl = s[:cut].strip()
    # A '(' outside template brackets makes it a function declaration.
    depth = 0
    for ch in decl:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            return []
    m = re.search(r"(\w+)\s*(\[[^\]]*\])?$", decl)
    if not m or m.group(1) == decl:
        return []
    return [m.group(1)]


def config_structs():
    """[(struct, field, own files)] for every config struct under src/."""
    out = []
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        text = strip_comments(path.read_text())
        for m in STRUCT_RE.finditer(text):
            body = struct_body(text, m.end() - 1)
            own = {path, path.with_suffix(".cpp"), path.with_suffix(".hpp")}
            for st in top_level_statements(body):
                for name in field_names(st):
                    out.append((m.group(1), name, own))
    return out


def program_sources():
    files = {}
    for d in PROGRAM_DIRS:
        for path in (ROOT / d).rglob("*"):
            if path.suffix in SOURCE_SUFFIXES:
                files[path] = strip_comments(path.read_text())
    return files


def setter_re(field):
    """Setter of `field`; group 1 is the object it is set on ("" for a
    designated initializer)."""
    f = re.escape(field)
    return re.compile(
        r"(\w*)\s*(?:\.|->)" + f + r"\b(?:\s*(?:\.|->)\s*\w+)*\s*"
        r"(?:[-+*/|&]?=(?!=)|\{|\.\s*(?:push_back|emplace_back|insert|assign"
        r"|resize|emplace)\s*\()"
        r"|&\s*(\w+)(?:\.|->)" + f + r"\b")


def sets(rx, text, own):
    """True if `text` sets the field. In the struct's own files a setter
    on a member copy (`cfg_.f = ...`) is the component adjusting its own
    settings, not a program choosing one, so only other objects count."""
    for m in rx.finditer(text):
        obj = m.group(1) if m.group(1) is not None else m.group(2)
        if not own or not obj.endswith("_"):
            return True
    return False


def main(argv):
    list_all = "--list" in argv[1:]
    fields = config_structs()
    sources = program_sources()
    structs = {s for s, _, _ in fields}
    unset = set()
    for struct, field, own in fields:
        rx = setter_re(field)
        setters = [p for p, text in sources.items()
                   if sets(rx, text, p in own)]
        if list_all:
            where = ", ".join(sorted(str(p.relative_to(ROOT))
                                     for p in setters)[:3])
            print(f"  {struct}::{field}: {where or 'NO SETTER'}")
        if not setters:
            unset.add(f"{struct}::{field}")
    print(f"settings: {len(fields)} fields in {len(structs)} structs")
    bad = sorted(k for k in unset if k not in ALLOWED)
    stale = sorted(k for k in ALLOWED if k not in unset)
    for key in sorted(k for k in unset if k in ALLOWED):
        print(f"  allowed: {key} ({ALLOWED[key]})")
    for key in bad:
        print(f"  UNSET: {key} has no setter in src/, bench/ or "
              "perfbench/; make it a named constant", file=sys.stderr)
    for key in stale:
        print(f"  STALE: allowlist entry {key} names no unset field",
              file=sys.stderr)
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
