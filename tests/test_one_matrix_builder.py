"""Every matrix ``solvers`` factors is built one way: ``_shifted``, the stiffness plus a diagonal.

Newton's Jacobian, the descent's preconditioner and the monotone shift are
each the record's stiffness ``S`` with a diagonal added at ``S``'s stored
diagonal positions.  So in ``solvers.py`` every argument of ``_factorize``
is a call to ``_shifted``, or a local name that its function binds only to
such calls, or a leading block ``J[:k, :k]`` of either (a record's
unknowns, its pinned rows left out), and no sum ``S + sp.diags(...)``
restates a matrix beside the record.  ``.stiffness`` is read in
``_equation``, the record's builder, alone: everywhere else in
``solvers.py`` a read of an assembled stiffness is flagged.
"""

import ast
from pathlib import Path

import pytest

SOLVERS = Path(__file__).resolve().parent.parent / "src" / "torusbvp" / "solvers.py"
BUILDER = "_shifted"
BANNED = {"diags", "stiffness"}
RECORD_BUILDER = "_equation"  # the one top-level function that reads .stiffness


def is_builder_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == BUILDER


def binds_only_builder_calls(scope, name):
    """Whether ``scope`` binds ``name``, and only by statements ``name = _shifted(...)``."""
    built = [node.targets[0] for node in ast.walk(scope)
             if isinstance(node, ast.Assign) and len(node.targets) == 1 and is_builder_call(node.value)]
    stores = [node for node in ast.walk(scope)
              if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Store)]
    params = [node for node in ast.walk(scope) if isinstance(node, ast.arg) and node.arg == name]
    return bool(stores) and not params and all(any(store is target for target in built) for store in stores)


def leading_block_of(node):
    """``J`` if ``node`` is a leading block ``J[:k, :k]``, else ``node``."""
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2:
        rows, cols = node.slice.elts
        if all(isinstance(part, ast.Slice) and part.lower is None and part.step is None and part.upper is not None
               for part in (rows, cols)) and ast.unparse(rows) == ast.unparse(cols):
            return node.value
    return node


def stray_matrices(tree):
    """``(line, source)`` of every factored matrix not built by ``_shifted`` and every banned name.

    A ``.stiffness`` read in the top-level function ``_equation`` is not
    flagged: that is where the stiffness enters the record.
    """
    found = []
    for top in tree.body:
        builds_record = isinstance(top, ast.FunctionDef) and top.name == RECORD_BUILDER
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_factorize":
                arg = leading_block_of(node.args[0]) if len(node.args) == 1 and not node.keywords else None
                built = binds_only_builder_calls(top, arg.id) if isinstance(arg, ast.Name) else \
                    arg is not None and is_builder_call(arg)
                if not built:
                    found.append((node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Attribute) and node.attr in BANNED and \
                    not (builds_record and node.attr == "stiffness"):
                found.append((node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Name) and node.id in BANNED:
                found.append((node.lineno, node.id))
            elif isinstance(node, ast.alias) and node.name in BANNED:
                found.append((top.lineno, node.name))
    return sorted(found)


def test_every_factored_matrix_is_built_by_shifted():
    tree = ast.parse(SOLVERS.read_text(), filename=str(SOLVERS))
    assert stray_matrices(tree) == []
    assert [node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == BUILDER] \
        == [BUILDER]


@pytest.mark.parametrize("source, flagged", [
    ("lu = _factorize(_shifted(eq, d))", False),
    ("def f(eq, v):\n    J = _shifted(eq, v)\n    return _factorize(J)", False),
    ("def f(eq, v):\n    J = _shifted(eq, v)\n    if v:\n        J = _shifted(eq, -v)\n    return _factorize(J)",
     False),
    ("def f(eq, v):\n    J = _shifted(eq, v)\n    J = J + J\n    return _factorize(J)", True),
    ("def f(eq, v):\n    J = _shifted(eq, v)\n    J += J\n    return _factorize(J)", True),
    ("def f(J):\n    return _factorize(J)", True),
    ("def f(eq, v, k):\n    J = _shifted(eq, v)\n    return _factorize(J[:k, :k])", False),
    ("lu = _factorize(_shifted(eq, d)[:k, :k])", False),
    ("def f(J, k):\n    return _factorize(J[:k, :k])", True),
    ("def f(eq, v, k):\n    J = _shifted(eq, v)\n    return _factorize(J[:k, 1:k])", True),
    ("def f(eq, v, k, m):\n    J = _shifted(eq, v)\n    return _factorize(J[:k, :m])", True),
    ("def f(eq, v, k):\n    J = _shifted(eq, v)\n    return _factorize(J[:k])", True),
    ("def f(eq, v):\n    return _factorize(J)", True),
    ("lu = _factorize(S + sp.diags(weights))", True),
    ("lu = _factorize(_jacobian(eq, v))", True),
    ("lu = _factorize(matrix=_shifted(eq, d))", True),
    ("x = ops.stiffness @ v", True),
    ("def _equation(mesh, p):\n    return assemble(mesh, p).stiffness", False),
    ("def _descend(ops):\n    return ops.stiffness", True),
    ("x = sp.diags(d)", True),
    ("from scipy.sparse import diags", True),
    ("x = S @ v", False),
])
def test_lint_flags_matrices_built_another_way(source, flagged):
    assert bool(stray_matrices(ast.parse(source))) is flagged
