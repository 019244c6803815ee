"""Pytest plugin that lists the library statements no test ran.

Usage (from the repository root):

    PYTHONPATH=src:tools python -m pytest -q -p linecov

While the tests run, a ``sys.settrace`` hook records every line executed in
a file under ``src/l1coreg`` (frames of other files are not traced).  At the
end of the run the plugin prints, in the terminal summary, one
``path:line: source`` entry for each statement inside a function body that
never ran.  Docstrings, ``def``/``class`` lines, imports and module-level
lines are left out, and so are ``try:`` headers, which run no code of their
own.  A compound statement counts as run when its header ran (the ``if``
test, the ``for`` target, the ``with`` items).

Only the pytest process is traced: tests that run the CLI in a subprocess
(``python -m l1coreg ...``) add nothing, so a statement reached only that
way is listed.  Tracing slows the suite down several times.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "l1coreg"

_hits = {}  # filename -> set of executed line numbers
_wanted = {}  # code object -> line set of its file, or None when not traced


def _local(frame, event, arg):
    if event == "line":
        _wanted[frame.f_code].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    lines = _wanted.get(code, False)
    if lines is False:
        path = Path(code.co_filename).resolve()
        lines = _hits.setdefault(str(path), set()) if PACKAGE in path.parents else None
        _wanted[code] = lines
    return None if lines is None else _local


def _executable_lines(code):
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def _is_docstring(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _header(stmt):
    """Lines of ``stmt`` up to its first nested statement."""
    last = stmt.end_lineno
    for field in ("body", "orelse", "handlers", "finalbody", "cases"):
        block = getattr(stmt, field, None)
        if block:
            last = min(last, block[0].lineno - 1)
    return range(stmt.lineno, max(last, stmt.lineno) + 1)


def _function_statements(tree):
    """Statements inside function bodies, without defs, classes and imports."""
    skip = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Try)
    found = []

    def walk(body, in_function):
        for stmt in body:
            if in_function and not isinstance(stmt, skip) and not _is_docstring(stmt):
                found.append(stmt)
            inner = in_function or isinstance(stmt, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                walk(getattr(stmt, field, []), inner)
            for handler in getattr(stmt, "handlers", []):
                walk(handler.body, inner)
            for case in getattr(stmt, "cases", []):
                walk(case.body, inner)

    walk(tree.body, False)
    return found


def unrun_statements():
    """``(path, line, source)`` of every function statement that did not run."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        executable = _executable_lines(compile(text, str(path), "exec"))
        hit = _hits.get(str(path), set())
        for stmt in _function_statements(ast.parse(text)):
            header = [line for line in _header(stmt) if line in executable]
            if header and not hit.intersection(header):
                out.append((path, stmt.lineno, source[stmt.lineno - 1].strip()))
    return out


def pytest_configure(config):
    sys.settrace(_global)
    threading.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    root = PACKAGE.parents[1]
    missed = unrun_statements()
    terminalreporter.section(f"linecov: {len(missed)} statements not run")
    for path, line, text in missed:
        terminalreporter.write_line(f"{path.relative_to(root)}:{line}: {text}")
