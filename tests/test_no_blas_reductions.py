"""No library module reduces dense vectors through BLAS.

``np.dot``, ``np.vdot``, ``np.inner``, ``np.matmul``, ``.dot(`` and ``@`` on
dense arrays go to OpenBLAS.  Above about ten thousand entries it splits a dot
product over two threads, which rounds differently from one thread, and its
idle worker then spins on the second core.  Node sums go through
``mesh.weighted_sum`` instead; ``@`` stays only on the sparse matrices named
in ``SPARSE``, which scipy multiplies without BLAS.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "torusbvp"
MODULES = sorted(SRC.glob("*.py"))
SPARSE = {"ops.stiffness", "S", "stiffness", "stiff", "matrix"}
NUMPY_BLAS = {"dot", "vdot", "inner", "matmul"}


def dense_reductions(tree):
    """``(line, source)`` of every BLAS product in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (node.attr == "dot" or (
                node.attr in NUMPY_BLAS and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))):
            found.append(node)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) and ast.unparse(node.left) not in SPARSE:
            found.append(node)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            found.append(node)
    return sorted((node.lineno, ast.unparse(node)) for node in found)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_dense_blas_product(path):
    assert dense_reductions(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("source, flagged", [
    ("float(ops.volume_mass @ v)", True),
    ("x = np.dot(a, b)", True),
    ("x = numpy.inner(a, b)", True),
    ("x = a.dot(b)", True),
    ("np.matmul(a, b)", True),
    ("a @= b", True),
    ("w = ops.stiffness @ v", False),
    ("w = S @ v + stiffness @ v + stiff @ v + matrix @ v", False),
    ("s = weighted_sum(m, v)", False),
])
def test_lint_flags_dense_products(source, flagged):
    assert bool(dense_reductions(ast.parse(source))) is flagged
