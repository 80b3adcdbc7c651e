"""Statement lines of ``src/exlg`` that no test executes.

Runs pytest in this process under ``sys.settrace``, tracing only frames
whose code lives in ``src/exlg``, then prints each module's statement
lines that never ran.  Code that a test runs in a subprocess (the CLI
and demo tests) does not count.  Standard library and pytest only::

    python tools/linecov.py                 # the configured test paths
    python tools/linecov.py tests -k harness

Arguments go to pytest unchanged; the exit code is pytest's.
"""

from __future__ import annotations

import ast
import collections
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "exlg") + os.sep


def _code_lines(code) -> set:
    """Every line that some instruction of ``code`` or its nested code
    objects carries."""
    lines = {ln for _s, _e, ln in code.co_lines() if ln is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree):
    """(first line, lines) of every statement: a simple statement spans
    all its lines, a compound one its header up to its first body
    statement, decorators included."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        yield start, range(start, max(start, end) + 1)


def _ranges(lines) -> str:
    out, lines = [], sorted(lines)
    while lines:
        lo = hi = lines.pop(0)
        while lines and lines[0] == hi + 1:
            hi = lines.pop(0)
        out.append(str(lo) if lo == hi else f"{lo}-{hi}")
    return ", ".join(out)


def missed(path: str, ran: set) -> tuple:
    """(statements with code, first lines of those that never ran) of
    one source file, given the lines that ran in it."""
    with open(path) as fh:
        src = fh.read()
    code_lines = _code_lines(compile(src, path, "exec"))
    total, never = 0, set()
    for first, span in _statements(ast.parse(src)):
        lines = code_lines.intersection(span)
        if lines:
            total += 1
            if not lines & ran:
                never.add(first)
    return total, never


def main(argv) -> int:
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    ran = collections.defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(PKG) else None

    os.chdir(ROOT)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)

    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            path = PKG + name
            total, never = missed(path, ran[path])
            print(f"exlg/{name}: {total} statements, {len(never)} never run"
                  + (f": {_ranges(never)}" if never else ""))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
