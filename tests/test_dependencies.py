"""The package stays free of runtime dependencies: every module under
src/emsim imports only the standard library and emsim itself, and the CLI
imports no more of the standard library than it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "emsim"


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_stdlib_and_itself():
    allowed = set(sys.stdlib_module_names) | {"emsim"}
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = [f"{path.name}:{line}: {root}"
               for path in modules
               for line, root in imported_roots(ast.parse(path.read_text(encoding="utf-8")))
               if root not in allowed]
    assert outside == []


def test_cli_import_leaves_dataclasses_unloaded():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 10 ms of
    # every emsim process's start-up
    code = "import sys, emsim.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         encoding="utf-8", check=True).stdout
    assert out.strip() == "False"


def unused_imports(tree):
    """(line, name) of every name a module imports and never reads; the
    first part of an attribute chain (os in os.path.join) counts as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_modules_use_every_name_they_import():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = [f"{path.name}:{line}: {name}"
              for path in modules
              for line, name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert unused == []


def test_unused_import_scan_sees_what_it_must():
    tree = ast.parse("from __future__ import annotations\nimport csv\nimport os.path\n"
                     "from json import dump as d, loads\nos.sep\nloads('1')\n")
    assert unused_imports(tree) == [(2, "csv"), (4, "d")]
