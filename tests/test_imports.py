"""Every name a library module imports is used in that module.

``__init__.py`` re-exports by importing, and ``from __future__`` imports
switch language features, so both are exempt.  Every private module-level
function or class of the library is referenced somewhere in it, so a helper
whose last caller goes is deleted with it.  Every name ``__init__.py``
exports is referenced by another library module or by the benchmark in
``perfbench/``: a public name only the tests reach does not belong in the
library.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "torusbvp"
PERFBENCH = SRC.parent.parent / "perfbench"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_every_private_helper_is_referenced():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(private - referenced) == []


def exports_without_caller(init, trees):
    """Names ``init`` imports that no tree of ``trees`` references; a name's own def or class is no reference."""
    exported = {alias.asname or alias.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for tree in trees for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(exported - referenced)


def test_every_export_has_a_caller():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES + sorted(PERFBENCH.glob("*.py"))]
    assert exports_without_caller(ast.parse((SRC / "__init__.py").read_text()), trees) == []


@pytest.mark.parametrize("init, sources, flagged", [
    ("from .geometry import TorusParams", ["p = TorusParams(2.0, 1.0)"], []),
    ("from .mesh import DiskField", ["field = mesh.DiskField(m, v)"], []),
    ("from .mesh import DiskField", ["class DiskField:\n    pass", "x = 1"], ["DiskField"]),
    ("from .geometry import TorusParams, make_params",
     ["def make_params(l, r):\n    return TorusParams(l, r)"], ["make_params"]),
    ("from .errors import DomainError, ModeError", ["class ModeError(Exception):\n    pass", "raise DomainError('x')"],
     ["ModeError"]),
])
def test_lint_flags_exports_without_a_caller(init, sources, flagged):
    assert exports_without_caller(ast.parse(init), [ast.parse(source) for source in sources]) == flagged
