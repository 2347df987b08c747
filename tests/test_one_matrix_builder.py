"""Every matrix ``solvers`` factors is built one way: ``_shifted``, the stiffness plus a diagonal.

Newton's Jacobian, the descent's preconditioner and the monotone shift are
each the record's stiffness ``S`` with a diagonal added at ``S``'s stored
diagonal positions.  So in ``solvers.py`` every argument of ``_factorize``
is a call to ``_shifted``, or a local name that its function binds only to
such calls, and no sum ``S + sp.diags(...)`` or read of an assembled
``.stiffness`` restates a matrix beside the record.
"""

import ast
from pathlib import Path

import pytest

SOLVERS = Path(__file__).resolve().parent.parent / "src" / "torusbvp" / "solvers.py"
BUILDER = "_shifted"
BANNED = {"diags", "stiffness"}


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


def stray_matrices(tree):
    """``(line, source)`` of every factored matrix not built by ``_shifted`` and every banned name."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_factorize":
                arg = node.args[0] if len(node.args) == 1 and not node.keywords else None
                built = binds_only_builder_calls(top, arg.id) if isinstance(arg, ast.Name) else \
                    arg is not None and is_builder_call(arg)
                if not built:
                    found.append((node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Attribute) and node.attr in BANNED:
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
    ("def f(eq, v):\n    return _factorize(J)", True),
    ("lu = _factorize(S + sp.diags(weights))", True),
    ("lu = _factorize(_jacobian(eq, v))", True),
    ("lu = _factorize(matrix=_shifted(eq, d))", True),
    ("x = ops.stiffness @ v", True),
    ("x = sp.diags(d)", True),
    ("from scipy.sparse import diags", True),
    ("x = S @ v", False),
])
def test_lint_flags_matrices_built_another_way(source, flagged):
    assert bool(stray_matrices(ast.parse(source))) is flagged
