#!/usr/bin/env python3
"""Exported-surface guard: every `val` in lib/**/*.mli must have a caller.

Run from the repository root:

    python3 tools/surface.py

It prints the lib+bin line count, the test/ line count and the number of
exported `val`s, then lists the exports that only test/ names. It exits 1,
listing the names, when a `val` of `lib/**/*.mli` is named by no file outside
its own module (the module's .ml and .mli).

A file names `v`, declared in module M (or in M's submodule S), when it
contains `M.v` (`M.S.v`), or `A.v` for an alias `module A = ...M`, or a bare
`v` while it opens M (`open M`, `let open M in`, `M.( ... )`). Comments and
string literals do not count. Modules are matched by their own name, so
`Obs.Metrics` and `Platform.Metrics` (and `Fleet.Pool` and `Parallel.Pool`)
count each other's callers: the guard never reports a used export, but may
miss an unused one.
"""

import os
import re
import sys

CALLER_DIRS = ("lib", "bin", "examples", "e2ebench", "test")


def strip_code(src):
    """Blank out comments and string literals, keeping line structure."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if depth > 0:
            if src.startswith("*)", i):
                depth -= 1
                i += 2
            else:
                out.append("\n" if c == "\n" else "")
                i += 1
            continue
        if c == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            out.append('""')
            i += 1
            continue
        m = re.match(r"\{([a-z_]*)\|", src[i:i + 20])
        if m:
            close = "|" + m.group(1) + "}"
            j = src.find(close, i + len(m.group(0)))
            j = n if j < 0 else j + len(close)
            out.append('""' + "\n" * src.count("\n", i, j))
            i = j
            continue
        if c == "'" and i + 2 < n and (src[i + 1] == "\\" or src[i + 2] == "'"):
            j = src.find("'", i + 2)
            out.append("' '")
            i = n if j < 0 else j + 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def source_files(dirs):
    for d in dirs:
        for root, subdirs, files in os.walk(d):
            subdirs[:] = sorted(s for s in subdirs if not s.startswith(("_", ".")))
            for f in sorted(files):
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(root, f)


def exports(path):
    """(submodule path, name) of each `val` line, as the line count sees it."""
    stack, vals = [], []
    for line in strip_code(open(path).read()).splitlines():
        m = re.match(r"\s*module\s+([A-Z]\w*)\s*:\s*sig\b", line)
        if m:
            stack.append(m.group(1))
        elif re.match(r"\s*end\b", line) and stack:
            stack.pop()
        m = re.match(r"\s*val\s+([a-z_][\w']*|\([^)]*\))", line)
        if m:
            vals.append((tuple(stack), m.group(1)))
    return vals


def opened_paths(code):
    """Module paths a file opens (anywhere), and its module aliases."""
    opens = set(re.findall(r"\bopen!?\s+([A-Z][\w']*(?:\.[A-Z][\w']*)*)", code))
    opens |= set(re.findall(r"\b([A-Z][\w']*(?:\.[A-Z][\w']*)*)\.\(", code))
    aliases = re.findall(
        r"\bmodule\s+([A-Z][\w']*)\s*=\s*([A-Z][\w']*(?:\.[A-Z][\w']*)*)\b", code)
    return opens, aliases


def ends_with(path, suffix):
    parts = path.split(".")
    return parts[-len(suffix):] == list(suffix)


class Caller:
    def __init__(self, path):
        self.path = path
        self.code = strip_code(open(path).read())
        opens, self.aliases = opened_paths(self.code)
        self.opens = {self.resolve(o) for o in opens}

    def resolve(self, path):
        """[path] with a leading module alias replaced by what it names."""
        head, _, rest = path.partition(".")
        for a, p in self.aliases:
            if a == head:
                return p + ("." + rest if rest else "")
        return path

    def names(self, qual, name):
        """Does this file name [name], declared at module path [qual]?"""
        word = re.escape(name)
        # qualified: M.v (M.S.v), or A.v for an alias A of M (of M.S)
        heads = {qual}
        heads |= {(a,) + qual[i:] for a, p in self.aliases
                  for i in range(1, len(qual) + 1) if ends_with(p, qual[:i])}
        for h in heads:
            if re.search(r"(?<![\w'])" + r"\.".join(h + (word,)) + r"(?![\w'])",
                         self.code):
                return True
        # opened: `open M.S` exposes a bare v, `open M` exposes S.v
        for o in self.opens:
            for i in range(1, len(qual) + 1):
                if ends_with(o, qual[:i]):
                    lead = r"(?<![\w'.])" if i == len(qual) else r"(?<![\w'])"
                    pat = r"\.".join(qual[i:] + (word,))
                    if re.search(lead + pat + r"(?![\w'])", self.code):
                        return True
        return False


def lines(dirs):
    return sum(open(f).read().count("\n") for f in source_files(dirs))


def main():
    mlis = [f for f in source_files(["lib"]) if f.endswith(".mli")]
    callers = [Caller(f) for f in source_files(CALLER_DIRS)]
    unused, test_only, total = [], [], 0
    for mli in mlis:
        base = os.path.splitext(os.path.basename(mli))[0]
        own = {mli, mli[:-1]}
        modname = base[0].upper() + base[1:]
        for sub, name in exports(mli):
            total += 1
            if name.startswith("("):
                continue
            qual = (modname,) + sub
            users = [c.path for c in callers
                     if c.path not in own and c.names(qual, name)]
            label = "%s: %s" % (mli, ".".join(qual + (name,)))
            if not users:
                unused.append(label)
            elif all(u.startswith("test" + os.sep) for u in users):
                test_only.append(label)
    print("lib+bin lines: %d" % lines(["lib", "bin"]))
    print("test lines: %d" % lines(["test"]))
    print("exported vals: %d" % total)
    print("exported vals named only by test/: %d" % len(test_only))
    for label in test_only:
        print("  test-only  " + label)
    if unused:
        print("exported vals named by no file outside their module: %d" % len(unused))
        for label in unused:
            print("  unused     " + label)
        return 1
    print("every exported val is named outside its module")
    return 0


if __name__ == "__main__":
    sys.exit(main())
