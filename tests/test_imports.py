"""Every name a library module imports is used in that module.

``__init__.py`` re-exports by importing, and ``from __future__`` imports
switch language features, so both are exempt.  Every private module-level
function, class or constant of the library is referenced somewhere in it, so
a helper or a setting whose last reader goes is deleted with it.  Every name ``__init__.py``
exports is referenced by another library module or by the benchmark in
``perfbench/``: a public name only the tests reach does not belong in the
library.  Every public module-level function or class of the library is
read there too, outside its own def, whether ``__init__.py`` exports it or
not: an import is no read, so a public helper whose last caller goes is
deleted with it.
"""

import ast
from collections import Counter
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


def unreferenced_private_names(trees):
    """Private module-level defs, classes and constants of ``trees`` that no tree reads.

    A def or class counts any name or attribute of its name as a reference.
    A constant's own assignment target is a ``Name`` node too, so a
    constant counts only ``Load`` reads.  Dunder names are not private.
    """
    helpers = {node.name for tree in trees for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    constants = {name.id for tree in trees for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for name in ast.walk(node) if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)}
    names = [node for tree in trees for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    referenced = {node.id if isinstance(node, ast.Name) else node.attr for node in names}
    read = {node.id if isinstance(node, ast.Name) else node.attr for node in names if isinstance(node.ctx, ast.Load)}
    return sorted(name for name in helpers - referenced | constants - read
                  if name.startswith("_") and not name.startswith("__"))


def test_every_private_helper_is_referenced():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_names(trees) == []


@pytest.mark.parametrize("source, flagged", [
    ("def _helper():\n    pass", ["_helper"]),
    ("def _helper():\n    pass\nf = _helper", []),
    ("_SWEEPS = 8", ["_SWEEPS"]),
    ("_SWEEPS: int = 8", ["_SWEEPS"]),
    ("_SWEEPS = 8\nfor _ in range(_SWEEPS):\n    pass", []),
    ("_SWEEPS = 8\n_SWEEPS = 7", ["_SWEEPS"]),
    ("SWEEPS = 8\n__version__ = '1'", []),
    ("_LO, _HI = 0, 1\nx = _LO", ["_HI"]),
])
def test_lint_flags_private_names_without_a_reader(source, flagged):
    assert unreferenced_private_names([ast.parse(source)]) == flagged


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


def name_reads(node):
    """How often each name is read in ``node``, as a ``Name`` or as an attribute."""
    return Counter(child.id if isinstance(child, ast.Name) else child.attr for child in ast.walk(node)
                   if isinstance(child, (ast.Name, ast.Attribute)))


def public_defs_without_reader(trees, readers):
    """Public module-level defs and classes of ``trees`` that no tree of ``trees`` or ``readers`` reads.

    A read is any name or attribute of the def's name outside the def
    itself: its own def is no reader, and neither is an import.
    """
    reads = sum((name_reads(tree) for tree in [*trees, *readers]), Counter())
    return sorted(node.name for tree in trees for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                  and reads[node.name] == name_reads(node)[node.name])


def test_every_public_def_has_a_reader():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    readers = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(PERFBENCH.glob("*.py"))]
    assert public_defs_without_reader(trees, readers) == []


@pytest.mark.parametrize("sources, readers, flagged", [
    (["def solve():\n    pass"], [], ["solve"]),
    (["class Report:\n    pass"], [], ["Report"]),
    (["def solve():\n    pass\nx = solve()"], [], []),
    (["def solve():\n    pass", "def run():\n    return m.solve()"], [], ["run"]),
    (["def solve():\n    pass", "from .m import solve"], [], ["solve"]),
    (["def solve():\n    pass"], ["solvers.solve()"], []),
    (["def solve(n):\n    return solve(n - 1)"], [], ["solve"]),
    (["def solve():\n    pass\ndef total():\n    return solve()"], [], ["total"]),
    (["def _helper():\n    pass"], [], []),
    (["def outer():\n    def inner():\n        pass\n    return inner\nouter()"], [], []),
])
def test_lint_flags_public_defs_without_a_reader(sources, readers, flagged):
    assert public_defs_without_reader([ast.parse(source) for source in sources],
                                      [ast.parse(source) for source in readers]) == flagged
