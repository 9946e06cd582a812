"""Run the test suite under a stdlib line tracer and fail if a statement of
src/emsim never ran.

    PYTHONPATH=src python tools/statement_coverage.py [pytest arguments]

The arguments go to pytest unchanged. Only coverage is judged here: tracing
slows the run several times over, so a wall-clock budget may fail under it,
and the untraced run is the one that judges test results. The exit code is
1 when a statement never ran and pytest's own when pytest could not run the
tests (2 and up); failed tests alone do not change it.

A statement counts as run when a line event fires on one of its lines: any
line of a simple statement, or of a compound statement's header (its
decorators down to the line before its first nested statement).
Docstrings and the bodies of `if __name__ == "__main__":` blocks are
exempt.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "emsim"


def _is_main_guard(node: ast.AST) -> bool:
    test = node.test if isinstance(node, ast.If) else None
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
            and test.left.id == "__name__" and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statement_spans(parent: ast.AST):
    """Each statement's (first, last) line, where a line event shows that it
    ran, outside docstrings and main-guard bodies."""
    for node in ast.iter_child_nodes(parent):
        if isinstance(node, ast.stmt) and not _is_docstring(node, parent):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            nested = [child.lineno for child in ast.iter_child_nodes(node)
                      if isinstance(child, (ast.stmt, ast.excepthandler))]
            yield first, max(first, min(nested) - 1) if nested else node.end_lineno
        if not _is_main_guard(node):
            yield from statement_spans(node)


def main(argv: list[str]) -> int:
    ran: dict[str, set[int]] = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}

    def tracer(lines: set[int]):
        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    tracers: dict[str, object] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            lines = ran.get(os.path.realpath(name))
            tracers[name] = None if lines is None else tracer(lines)
        return tracers[name]

    sys.settrace(on_call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)

    missed = []
    for path, lines in ran.items():
        source = Path(path).read_text(encoding="utf-8")
        text = source.splitlines()
        for first, last in statement_spans(ast.parse(source)):
            if lines.isdisjoint(range(first, last + 1)):
                missed.append(f"{os.path.relpath(path)}:{first}: {text[first - 1].strip()}")
    print()
    for line in missed:
        print(f"never ran: {line}")
    print(f"statement coverage of {len(ran)} modules in {os.path.relpath(PACKAGE)}: "
          f"{len(missed)} statements never ran (pytest exit code {int(status)})")
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return int(status)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
