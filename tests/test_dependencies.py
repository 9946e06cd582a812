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


ROOT = PACKAGE.parent.parent


def unread_definitions(module, read):
    """(line, name) of every module-level function, class and constant of
    module whose name is not in read; dunders are the interpreter's."""
    defined = []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, name.id) for target in targets
                        for name in ast.walk(target) if isinstance(name, ast.Name)]
    return sorted((line, name) for line, name in defined
                  if name not in read and not name.startswith("__"))


def read_names(tree):
    """Every name a tree reads: a loaded ast.Name, an attribute, or an
    imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def test_every_module_level_name_is_read_somewhere():
    # a function, class or constant of the package that neither the package,
    # the tests nor the benchmark reads is dead code
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for top in ("src", "tests", "bench") for path in sorted((ROOT / top).rglob("*.py"))}
    read = {name for tree in trees.values() for name in read_names(tree)}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    dead = [f"{path.name}:{line}: {name}"
            for path in modules for line, name in unread_definitions(trees[path], read)]
    assert dead == []


def test_dead_name_scan_sees_what_it_must():
    module = ast.parse("A = 1\nB: int = 2\n_c, D = 3, 4\ndef f():\n    return _c\n"
                       "class K:\n    pass\ndef g():\n    pass\n__version__ = '1'\nK()\n")
    user = ast.parse("from m import B\nimport m\nm.f\nA = 5\n")
    read = set(read_names(module)) | set(read_names(user))
    assert unread_definitions(module, read) == [(1, "A"), (3, "D"), (8, "g")]
