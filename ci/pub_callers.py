#!/usr/bin/env python3
"""Every `pub fn` of the product earns a caller.

  python3 ci/pub_callers.py       (from the root of the checkout)

The product half of a file is its lines before the first column-0
`#[cfg(test)]`, the cut every CI guard reads. A `pub fn` defined in the
product half of a file of `src/` or `crates/*/src` (the vendored crates sit
a level deeper and are not read) fails unless its name occurs, outside a
line that defines a function of that name, in the product half of some
file of `src/`, `crates/*/src`, `examples/` or `stackbench/src`, with
comments and string literals stripped. The one exception is an entry of
`ci/pub_callers.allow`, one `path name  # reason` per line; an entry
without a reason, one naming no `pub fn` of that file, or one whose
function has gained a caller fails too.

A free function's name is matched as a word, so a caller is any line
naming it. A `pub fn` inside an `impl` block is called only at `.name(`,
`.name::<` or `::name` (a method call, `Type::name`, `Self::name`), so a
field (`self.name`), a local or a free function of the same name does not
count; a method sharing its name with another type's method (`new`, `len`,
...) is still always "called". The scan is a floor on dead API, not a
proof of use.
"""
import pathlib, re, sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOW = ROOT / "ci" / "pub_callers.allow"
DEFINING = ["src", "crates/*/src"]
CALLING = DEFINING + ["examples", "stackbench/src"]

CUT = re.compile(r"^#\[cfg\(test\)\]")
PUB_FN = re.compile(r"^\s*pub\s+(?:(?:const|async|unsafe)\s+)*fn\s+(\w+)")
FN = re.compile(r"\bfn\s+(\w+)")
# A string literal (raw or not) or a char literal; a lifetime is not matched.
LITERAL = r'r(#*)".*?"\1|"(?:\\.|[^"\\])*"|\'(?:\\.|[^\\\'])\''
COMMENT = r"//[^\n]*|/\*.*?\*/"
# One left-to-right pass, so `//` inside a string and `"` inside a comment
# are each read as what they are.
TOKEN = re.compile(LITERAL + "|" + COMMENT, re.S)
WORD = re.compile(r"\b[A-Za-z_]\w*")
# A method call (`.name(`, `.name::<`) or a path (`::name`).
CALL_OR_PATH = re.compile(r"\.\s*([A-Za-z_]\w*)\s*(?=\(|::\s*<)|::\s*([A-Za-z_]\w*)")
IMPL = re.compile(r"^\s*(?:unsafe\s+)?impl\b")


def files(dirs):
    for d in dirs:
        for path in sorted(ROOT.glob(d)):
            yield from sorted(path.rglob("*.rs"))


def product_half(path):
    """The file's lines before its first column-0 `#[cfg(test)]`."""
    lines = []
    for line in path.read_text().splitlines():
        if CUT.match(line):
            break
        lines.append(line)
    return lines


def strip(lines):
    """Lines with comments and literals blanked, newlines kept in place."""
    blank = lambda m: re.sub(r"[^\n]", " ", m.group(0))
    return TOKEN.sub(blank, "\n".join(lines)).split("\n")


def main():
    defs = []  # (path, line number, name, inside an impl)
    called = set()  # names on a line that defines no function of that name
    qualified = set()  # of those, the ones named after `.` or `::`
    defining = set(files(DEFINING))
    for path in files(CALLING):
        rel = path.relative_to(ROOT).as_posix()
        depth, impls = 0, []  # brace depth; the depths impl blocks opened at
        for number, line in enumerate(strip(product_half(path)), 1):
            if IMPL.match(line):
                impls.append(depth)
            if path in defining and (m := PUB_FN.match(line)):
                defs.append((rel, number, m.group(1), bool(impls)))
            defined_here = set(FN.findall(line))
            called |= set(WORD.findall(line)) - defined_here
            qualified |= {a or b for a, b in CALL_OR_PATH.findall(line)} - defined_here
            for ch in line:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if impls and depth == impls[-1]:
                        impls.pop()

    allowed, fail = {}, False
    allow = ALLOW.read_text().splitlines() if ALLOW.exists() else []
    for number, line in enumerate(allow, 1):
        entry, _, reason = line.partition("#")
        if not entry.strip():
            continue
        fields = entry.split()
        if len(fields) != 2 or not reason.strip():
            print(f"ci/pub_callers.allow:{number}: want `path name  # reason`: {line}")
            fail = True
            continue
        allowed[tuple(fields)] = number

    def has_caller(name, in_impl):
        return name in (qualified if in_impl else called)

    defined = {(rel, name): in_impl for rel, _, name, in_impl in defs}
    for (rel, name), number in allowed.items():
        if (rel, name) not in defined:
            print(f"ci/pub_callers.allow:{number}: {rel} defines no product `pub fn {name}`")
            fail = True
        elif has_caller(name, defined[rel, name]):
            print(f"ci/pub_callers.allow:{number}: `{name}` has a caller now; drop the entry")
            fail = True

    dead = [
        (rel, n, name)
        for rel, n, name, in_impl in defs
        if not has_caller(name, in_impl) and (rel, name) not in allowed
    ]
    for rel, number, name in dead:
        print(f"{rel}:{number}: `pub fn {name}` has no caller outside tests")
    print(f"{len(defs)} product `pub fn`s, {len(allowed)} allowed, {len(dead)} without a caller")
    return 1 if fail or dead else 0


if __name__ == "__main__":
    sys.exit(main())
