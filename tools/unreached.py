"""List the functions of ``src/inclusafe`` that no digest run enters.

    python3 tools/unreached.py

Runs ``tools/bundle_digests.py`` in this process under ``sys.setprofile``
(its digest lines are discarded), so the runs traced are exactly the ones
that script makes: every builtin's ``all``, every benchmark workload
command and ``verify --check ID`` for every check on every builtin and
variant.  Then prints ``file:line name (N lines)`` for each function
(``def`` of any depth, methods included) that was never entered, and last
the total.  A function inside one never entered is not listed again, so
the total counts each line once.  Lines span the ``def`` (or its first
decorator) to the end of the body.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "inclusafe")


def _entered() -> set:
    """(file, first line) of every code object entered while the digest
    script runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            runpy.run_path(os.path.join(ROOT, "tools", "bundle_digests.py"), run_name="__main__")
        except SystemExit as e:
            if e.code:
                raise
        finally:
            sys.setprofile(None)
    return {(os.path.abspath(code.co_filename), code.co_firstlineno) for code in seen}


def _functions(path: str):
    """(first line, end line, qualified name, nested functions) of each
    top-level function and method in the module at ``path``, as a tree."""

    def walk(node, prefix):
        out = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out.append((first, child.end_lineno, name, walk(child, name + ".")))
            elif isinstance(child, ast.ClassDef):
                out += walk(child, prefix + child.name + ".")
            else:
                out += walk(child, prefix)
        return out

    with open(path, encoding="utf-8") as fh:
        return walk(ast.parse(fh.read(), path), "")


def _unreached(path: str, functions: list, entered: set):
    """(first line, line count, name) of each function never entered; the
    functions inside one that was entered are searched in turn."""
    for first, last, name, inner in functions:
        if (path, first) in entered:
            yield from _unreached(path, inner, entered)
        else:
            yield first, last - first + 1, name


def main() -> int:
    entered = _entered()
    found = []
    for module in sorted(os.listdir(PACKAGE)):
        if module.endswith(".py"):
            path = os.path.join(PACKAGE, module)
            for first, lines, name in _unreached(path, _functions(path), entered):
                found.append(lines)
                print(f"{os.path.relpath(path, ROOT)}:{first} {name} ({lines} lines)")
    print(f"total: {sum(found)} lines in {len(found)} functions never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
