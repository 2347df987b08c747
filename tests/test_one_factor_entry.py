"""Every sparse LU factor of the library is made by ``solvers._factorize``.

``_factorize`` is the one place that calls SuperLU, through the name
``splu`` that ``solvers`` imports at module level.  The benchmark's tracer
and the ``splu_sizes`` fixture wrap exactly that name, so a second call
site, or a call through another name (``scipy.sparse.linalg.splu``, an
alias, ``spsolve``, ``factorized``, ``spilu``), would make factors neither
of them sees.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "torusbvp"
MODULES = sorted(SRC.glob("*.py"))
LU_ENTRIES = {"splu", "spilu", "spsolve", "factorized"}


def stray_lu_references(tree, module):
    """``(line, source)`` of every sparse LU reference but ``solvers``' import and ``_factorize``'s call."""
    found = []
    for top in tree.body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                found += [(node.lineno, ast.unparse(node)) for alias in node.names if alias.name in LU_ENTRIES
                          and (module, scope, alias.name, alias.asname) != ("solvers.py", None, "splu", None)]
            elif isinstance(node, ast.Attribute) and node.attr in LU_ENTRIES:
                found.append((node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Name) and node.id in LU_ENTRIES \
                    and (module, scope, node.id) != ("solvers.py", "_factorize", "splu"):
                found.append((node.lineno, node.id))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_splu_is_called_only_in_factorize(path):
    assert stray_lu_references(ast.parse(path.read_text(), filename=str(path)), path.name) == []


@pytest.mark.parametrize("module, source, flagged", [
    ("solvers.py", "from scipy.sparse.linalg import splu", False),
    ("solvers.py", "def _factorize(A):\n    return splu(A)", False),
    ("solvers.py", "def _other(A):\n    return splu(A)", True),
    ("solvers.py", "def _factorize(A):\n    return scipy.sparse.linalg.splu(A)", True),
    ("solvers.py", "from scipy.sparse.linalg import splu as lu", True),
    ("solvers.py", "from scipy.sparse.linalg import spsolve", True),
    ("solvers.py", "def _f():\n    from scipy.sparse.linalg import splu", True),
    ("cli.py", "from scipy.sparse.linalg import splu", True),
    ("cli.py", "x = sla.factorized(A)", True),
    ("mesh.py", "x = np.linalg.solve(a, b)", False),
])
def test_lint_flags_stray_lu_references(module, source, flagged):
    assert bool(stray_lu_references(ast.parse(source), module)) is flagged
