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

A setter counts only for the struct it sets a field of, wherever the
file shows that struct: the receiver's declared type (`S x`, `S& x`,
`std::optional<S> x`, a parameter), walked through struct-typed fields
for a chain (`x.a.f`), or for a designated initializer the type of its
braces (`S x = {.f = v}`, `S{.f = v}`, nested `.a = {.f = v}`). Where
the file does not show the type (`auto`, a call result, a braced
argument) the setter counts for every same-named field. Declarations are
matched by name across the whole file: a name declared under several
config types counts for each of them. Setters it
recognises: `x.f = v` (and compound assignment), `.f = v` designated
initializers, `x.f{...}`, `x.f.g = v`, `x.f.push_back(...)` and the
like, and `&x.f`.

Usage: scripts/check_settings.py [--list]
  --list  print every field with its setter status
Exit 0 when every unset field is allowlisted, 1 otherwise (also when an
allowlist entry names no unset field, so the list cannot go stale).
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_SUFFIXES = ("_config", "_options", "_params", "_costs", "_context",
                   "_timing")
STRUCT_RE = re.compile(r"^\s*struct\s+(\w+)\s*(?::[^{;]*)?\{", re.M)
PROGRAM_DIRS = ("src", "bench", "perfbench")
SOURCE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")

# struct::field -> why it stays a setting although only tests set it.
ALLOWED = {
    "bluescale_config::responses":
        "ideal_latency is the reference model test_bluescale_ic checks the "
        "demux network against, and a planned fuzz axis",
    "memctrl_config::initiation_interval":
        "the controller's initiation interval is the SE time unit every "
        "program reads through it (perfbench/system.cpp among them)",
    "dnn_config::compute_cycles":
        "test_dnn_accelerator drives short and long compute phases to pin "
        "the burst/compute alternation; fig7 runs the 400-cycle default",
    "reconfig_exp_config::fault_intensity":
        "the determinism suites run the reconfig experiment under a fault "
        "campaign so hazard rollbacks are covered",
    "axi_hyperconnect_config::queue_depth":
        "test_axi_hyperconnect queues twice the outstanding cap per client "
        "to pin credit release; programs run the default depth of 4",
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
    return [(m.group(1), decl[:m.start()])]


def structs():
    """({struct: {field: type text}}, [(struct, field, own files)] for the
    config structs) over every struct under src/."""
    fields, config = {}, []
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        text = strip_comments(path.read_text())
        for m in STRUCT_RE.finditer(text):
            body = struct_body(text, m.end() - 1)
            own = {path, path.with_suffix(".cpp"), path.with_suffix(".hpp")}
            mine = fields.setdefault(m.group(1), {})
            for st in top_level_statements(body):
                for name, type_text in field_names(st):
                    mine[name] = type_text
                    if m.group(1).endswith(CONFIG_SUFFIXES):
                        config.append((m.group(1), name, own))
    return fields, config


def program_sources():
    files = {}
    for d in PROGRAM_DIRS:
        for path in (ROOT / d).rglob("*"):
            if path.suffix in SOURCE_SUFFIXES:
                files[path] = strip_comments(path.read_text())
    return files


def setter_re(field):
    """Use of `field` through a member access; group "recv" is the
    receiver chain before it (None for a designated initializer or an
    expression such as `f().x`), group "set" is non-empty when the use
    assigns, appends to or brace-initialises the field."""
    f = re.escape(field)
    return re.compile(
        r"(?P<recv>\b\w+(?:\s*(?:\.|->)\s*\w+)*)?\s*(?:\.|->)\s*" + f +
        r"\b(?P<set>(?:\s*(?:\.|->)\s*\w+)*\s*(?:[-+*/|&]?=(?!=)|\{"
        r"|\.\s*(?:push_back|emplace_back|insert|assign|resize|emplace)"
        r"\s*\())?")


class typing:
    """What one file shows of the config structs' types."""

    def __init__(self, text, fields):
        self.text = text
        self.fields = fields
        self.names = sorted(fields, key=len, reverse=True)
        self.struct_of = {}
        self.declared = {}
        decl = re.compile(
            r"\b(" + "|".join(map(re.escape, self.names)) +
            r")\b\s*>?\s*(?:const\b\s*)?[&*]*\s*(\w+)\s*(?=[;=,{)(\[:])")
        for m in decl.finditer(text):
            self.declared.setdefault(m.group(2), set()).add(m.group(1))

    def struct_in(self, type_text):
        """The struct a declaration's type text names, or None."""
        for name in re.findall(r"\w+", type_text)[::-1]:
            if name in self.fields:
                return name
        return None

    def of_chain(self, chain):
        """The structs the receiver chain `x.a.b` may be, or None."""
        parts = re.split(r"\s*(?:\.|->)\s*", chain)
        types = self.declared.get(parts[0])
        if not types:
            return None
        for field in parts[1:]:
            nxt = set()
            for t in types:
                inner = self.struct_in(self.fields[t].get(field, ""))
                if inner is None:
                    return None
                nxt.add(inner)
            types = nxt
        return types

    def of_braces(self, at):
        """The structs the braces enclosing offset `at` initialise, or
        None."""
        depth = 0
        for i in range(at - 1, -1, -1):
            ch = self.text[i]
            if ch == "}":
                depth += 1
            elif ch == "{":
                if depth > 0:
                    depth -= 1
                    continue
                return self.before_brace(i)
            elif ch == ";" and depth == 0:
                return None
        return None

    def before_brace(self, brace):
        head = self.text[max(0, brace - 200):brace]
        head = re.split(r"[;{}(,]", head)[-1].strip()
        head = re.sub(r"=$", "", head).strip()
        nested = re.fullmatch(r"\.\s*(\w+)", head)
        if nested:
            outer = self.of_braces(brace - len(head) - 1)
            if not outer:
                return None
            inner = {self.struct_in(self.fields[t].get(nested.group(1), ""))
                     for t in outer}
            return None if None in inner else inner
        found = self.struct_in(head)
        if found is not None:
            return {found}
        name = re.search(r"(\w+)$", head)
        return self.declared.get(name.group(1)) if name else None


def setter_structs(rx, text, own, types):
    """The structs `text` sets the field in: a set of names, or None for
    a setter whose receiver type the file does not show. In the struct's
    own files a setter on a member copy (`cfg_.f = ...`) is the component
    adjusting its own settings, not a program choosing one, so only other
    objects count."""
    found = set()
    for m in rx.finditer(text):
        recv = m.group("recv")
        before = text[:m.start()].rstrip()
        if not m.group("set") and not before.endswith("&"):
            continue
        if recv is None:
            if not before.endswith(("{", ",")):
                return None
            where = types.of_braces(m.start())
        else:
            if own and re.split(r"\W+", recv)[-1].endswith("_"):
                continue
            where = types.of_chain(recv)
        if where is None:
            return None
        found |= where
    return found


def main(argv):
    list_all = "--list" in argv[1:]
    fields, config = structs()
    sources = {p: (text, typing(text, fields))
               for p, text in program_sources().items()}
    unset = set()
    for struct, field, own in config:
        rx = setter_re(field)
        setters = []
        for p, (text, types) in sources.items():
            if field not in text:
                continue
            where = setter_structs(rx, text, p in own, types)
            if where is None or struct in where:
                setters.append(p)
        if list_all:
            where = ", ".join(sorted(str(p.relative_to(ROOT))
                                     for p in setters)[:3])
            print(f"  {struct}::{field}: {where or 'NO SETTER'}")
        if not setters:
            unset.add(f"{struct}::{field}")
    n_structs = len({s for s, _, _ in config})
    print(f"settings: {len(config)} fields in {n_structs} structs")
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
