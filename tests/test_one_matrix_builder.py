"""No matrix of ``solvers`` is built beside the record: the stiffness is read from it, and no sum restates it.

Newton's Jacobian, the descent's preconditioner and the monotone shift are
each the record's stiffness ``S`` plus a diagonal, built and factored by
``_factorize(eq, diagonal)`` alone (``tests/test_one_factor_entry.py``
keeps ``splu`` there).  So in ``solvers.py`` every call of ``_factorize``
passes two positional arguments, the first a local name that its function
takes as a parameter or binds only to a record built by ``_equation`` or
``_admit``: never a matrix, a block of one, or a record with its stiffness
swapped.  No sum ``S + sp.diags(...)`` restates such a matrix, and
``.stiffness`` is read in ``_equation``, the record's builder, alone:
everywhere else in ``solvers.py`` a read of an assembled stiffness is
flagged.
"""

import ast
from pathlib import Path

import pytest

SOLVERS = Path(__file__).resolve().parent.parent / "src" / "torusbvp" / "solvers.py"
BANNED = {"diags", "stiffness"}
RECORD_BUILDER = "_equation"  # the one top-level function that reads .stiffness
RECORD_CALLS = {"_equation", "_admit"}  # the calls that return a record


def is_record_call(node):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in RECORD_CALLS


def holds_only_records(scope, name):
    """Whether ``scope`` binds ``name``, and only as a parameter or by statements ``name = _equation(...)``."""
    built = [node.targets[0] for node in ast.walk(scope)
             if isinstance(node, ast.Assign) and len(node.targets) == 1 and is_record_call(node.value)]
    stores = [node for node in ast.walk(scope)
              if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Store)]
    params = [node for node in ast.walk(scope) if isinstance(node, ast.arg) and node.arg == name]
    return bool(stores or params) and all(any(store is target for target in built) for store in stores)


def stray_matrices(tree):
    """``(line, source)`` of every factor not of a record and a diagonal, and of every banned name.

    A ``.stiffness`` read in the top-level function ``_equation`` is not
    flagged: that is where the stiffness enters the record.
    """
    found = []
    for top in tree.body:
        builds_record = isinstance(top, ast.FunctionDef) and top.name == RECORD_BUILDER
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_factorize":
                eq = node.args[0] if len(node.args) == 2 and not node.keywords else None
                if not (isinstance(eq, ast.Name) and holds_only_records(top, eq.id)):
                    found.append((node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Attribute) and node.attr in BANNED and \
                    not (builds_record and node.attr == "stiffness"):
                found.append((node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Name) and node.id in BANNED:
                found.append((node.lineno, node.id))
            elif isinstance(node, ast.alias) and node.name in BANNED:
                found.append((top.lineno, node.name))
    return sorted(found)


def test_no_matrix_is_built_beside_the_record():
    tree = ast.parse(SOLVERS.read_text(), filename=str(SOLVERS))
    assert stray_matrices(tree) == []
    factorize = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_factorize"]
    assert [[arg.arg for arg in node.args.args] for node in factorize] == [["eq", "diagonal"]]


@pytest.mark.parametrize("source, flagged", [
    ("def f(eq, v):\n    return _factorize(eq, abs(v))", False),
    ("def f(eq, v):\n    def g(w):\n        return _factorize(eq, w)\n    return g(v)", False),
    ("def f(mesh, p, prob, d):\n    eq = _admit(mesh, p, prob)\n    return _factorize(eq, d)", False),
    ("def f(mesh, p, prob, d):\n    eq = _equation(mesh, p, prob, True)\n    return _factorize(eq, d)", False),
    ("def f(eq, J, d):\n    return _factorize(eq._replace(S=J), d)", True),
    ("def f(eq, J, d):\n    eq = eq._replace(S=J)\n    return _factorize(eq, d)", True),
    ("def f(eq, d):\n    return _factorize(eq.S, d)", True),
    ("def f(J, k, d):\n    return _factorize(J[:k, :k], d)", True),
    ("def f(eq, d):\n    return _factorize(eq)", True),
    ("def f(eq, d, k):\n    return _factorize(eq, d, k)", True),
    ("def f(args):\n    return _factorize(*args)", True),
    ("def f(d):\n    return _factorize(eq, d)", True),
    ("def f(eqs, d):\n    for eq in eqs:\n        return _factorize(eq, d)", True),
    ("lu = _factorize(S + sp.diags(weights))", True),
    ("x = ops.stiffness @ v", True),
    ("def _equation(mesh, p):\n    return assemble(mesh, p).stiffness", False),
    ("def _descend(ops):\n    return ops.stiffness", True),
    ("x = sp.diags(d)", True),
    ("from scipy.sparse import diags", True),
    ("x = S @ v", False),
])
def test_lint_flags_matrices_built_another_way(source, flagged):
    assert bool(stray_matrices(ast.parse(source))) is flagged
