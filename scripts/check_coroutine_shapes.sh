#!/usr/bin/env bash
# Lint coroutines for a shape GCC 12.2 miscompiles.
#
# A coroutine that declares no local variable and awaits inside an `if`
# condition, or in the right operand of `&&` / `||`, crashes before its
# first statement at -O0 and completes without a value at -O2 under GCC
# 12.2; the same coroutine with one named local works. The mend is the
# one zoo/specialist.hpp's query_fate uses: await into a named local,
# then test the local.
#
# A coroutine here is a function or lambda whose return type is
# Co<...> or Task (sim/co.hpp, sim/task.hpp) and whose body awaits. A
# local is any declaration statement in the body, a for-loop variable
# included. The parse is lexical (comments and literals stripped, braces
# matched), which is enough for this code base's layout.
#
# Usage: check_coroutine_shapes.sh [file-or-dir ...]   (default: src)
# Exits 1 and lists every hit, or prints OK. scripts/lint_fixtures holds
# the repro shape, which the lint must flag.
set -u

if [ "$#" -eq 0 ]; then
  set -- src
fi

python3 - "$@" <<'PY'
import os
import re
import sys

KEYWORDS = {
    "return", "co_return", "co_await", "co_yield", "if", "else", "for",
    "while", "do", "switch", "case", "default", "break", "continue",
    "goto", "throw", "delete", "new", "using", "typedef", "sizeof",
    "static_assert", "try", "catch", "this",
}

# A coroutine header: a Co<...> or Task return type (or a lambda's
# trailing one), a name or parameter list, then the body's brace.
HEADER = re.compile(
    r"(?:\b(?:sim::)?(?:Co<[^{};]*?>|Task)\s+[\w:~]+\s*\("
    r"|->\s*(?:sim::)?(?:Co<[^{};]*?>|Task)\s*\{)")
DECL = re.compile(
    r"^(?:(?:const|constexpr|static|volatile|thread_local)\s+)*"
    r"(?:typename\s+)?"
    r"(?P<type>auto|[A-Za-z_][\w:]*(?:<[^;{}]*>)?(?:::[A-Za-z_]\w*)*)"
    r"(?:\s*[*&]+\s*|\s+)"
    r"(?:const\s+)?"
    r"(?:\[[^\]]*\]|[A-Za-z_]\w*)\s*(?:=|\{|;|\(|:)")


def strip(text):
    """Blank out comments and string/char literals, keeping newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * (min(j, n) - i - 1) + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def match_close(text, i, open_ch, close_ch):
    depth = 0
    for j in range(i, len(text)):
        if text[j] == open_ch:
            depth += 1
        elif text[j] == close_ch:
            depth -= 1
            if depth == 0:
                return j
    return len(text) - 1


def statements(body):
    """Starts of the statements in a brace body, at every depth."""
    for m in re.finditer(r"(?:^|[{};]|\)\s*(?=\w))\s*", body):
        yield body[m.end():m.end() + 200]


def declares_local(body):
    for m in re.finditer(r"\bfor\s*\(", body):
        init = body[m.end():body.find(";", m.end())]
        if DECL.match(init.strip() + ";"):
            return True
    for stmt in statements(body):
        d = DECL.match(stmt)
        if d and d.group("type") not in KEYWORDS:
            return True
    return False


def hazards(body):
    """(offset, reason) of every await the miscompile needs."""
    hits = []
    for m in re.finditer(r"\bif\s*(?:constexpr\s*)?\(", body):
        close = match_close(body, m.end() - 1, "(", ")")
        if "co_await" in body[m.end():close]:
            hits.append((m.start(), "co_await in an if condition"))
    for m in re.finditer(r"(&&|\|\|)\s*[!(\s]*co_await\b", body):
        hits.append((m.start(), "co_await right of " + m.group(1)))
    return hits


def check(path):
    raw = open(path, encoding="utf-8", errors="replace").read()
    text = strip(raw)
    found = []
    for m in HEADER.finditer(text):
        brace = text.find("{", m.end() - 1)
        if brace < 0:
            continue
        # A declaration (a ';' before the body's '{') is not a definition.
        if ";" in text[m.end():brace]:
            continue
        end = match_close(text, brace, "{", "}")
        body = text[brace + 1:end]
        if "co_await" not in body and "co_return" not in body:
            continue
        if declares_local(body):
            continue
        for offset, reason in hazards(body):
            line = text.count("\n", 0, brace + 1 + offset) + 1
            found.append(f"{path}:{line}: {reason} in a coroutine that "
                         "declares no local")
    return found


paths = []
for arg in sys.argv[1:]:
    if os.path.isdir(arg):
        for root, _, files in os.walk(arg):
            paths += [os.path.join(root, f) for f in sorted(files)
                      if f.endswith((".hpp", ".cpp", ".h"))]
    else:
        paths.append(arg)

hits = [h for p in sorted(paths) for h in check(p)]
if hits:
    print("coroutines GCC 12.2 miscompiles (await into a named local):")
    print("\n".join(hits))
    sys.exit(1)
print(f"OK: no no-local coroutine awaits in a condition ({len(paths)} files)")
PY
