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
