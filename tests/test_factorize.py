"""The solvers' one factorization entry point against SuperLU's defaults.

Each matrix kind the solvers factor is rebuilt here from the assembled
operators and factored in the mesh's nested-dissection order, restricted
to the interior nodes for the Dirichlet block.  ``_factorize`` must solve
it as accurately as ``splu`` with its default (COLAMD) ordering, and with
clearly less fill; fill is a count, so a changed ordering fails
deterministically.  The benchmark's tracer must still see one factor and
one triangular solve per Newton step, and one solver span per public solve.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import torusbvp as tb
from torusbvp.mesh import dissection_order
from torusbvp.solvers import _factorize, _restrict_order

SOLVE_RTOL = 1e-12


def _smooth(mesh):
    return 0.3 * mesh.nodes[:, 0] - 0.2 * mesh.nodes[:, 1] ** 2


def p1_jacobian_masked(mesh, ops):
    """Interior block of the P1 Newton Jacobian S - diag(m f e^v)."""
    f = 1.0 + 0.2 * mesh.nodes[:, 0]
    jac = (ops.stiffness - sp.diags(ops.volume_mass * f * np.exp(_smooth(mesh)))).tocsr()
    interior = mesh.interior_nodes()
    return jac[interior, :][:, interior]


def p2_jacobian(mesh, ops):
    """P2 Newton Jacobian S + diag(m f e^v + mb g e^v)."""
    f = -0.5 * math.exp(-1.0) * (1.0 + 0.1 * mesh.nodes[:, 0])
    ev = np.exp(_smooth(mesh))
    return ops.stiffness + sp.diags(ops.volume_mass * f * ev + ops.boundary_mass * f * ev)


def monotone_shifted(mesh, ops):
    """Shifted matrix of the monotone iteration, S + diag(w m + wb mb)."""
    return ops.stiffness + sp.diags(2.5 * ops.volume_mass + 2.0 * ops.boundary_mass)


# kind -> the elimination order of its unknowns
ORDER = {p1_jacobian_masked: lambda mesh: _restrict_order(dissection_order(mesh), mesh.interior_nodes()),
         p2_jacobian: dissection_order, monotone_shifted: dissection_order}

# kind -> largest allowed nnz(L+U) relative to the default ordering's
FILL_RATIO_MAX = {p1_jacobian_masked: 0.8, p2_jacobian: 0.8, monotone_shifted: 0.8}


@pytest.mark.parametrize("n_rings", [16, 32])
@pytest.mark.parametrize("kind", list(FILL_RATIO_MAX), ids=lambda k: k.__name__)
def test_factorize_against_default_splu(params, kind, n_rings):
    mesh = tb.build_mesh(n_rings)
    A = sp.csc_matrix(kind(mesh, tb.assemble(mesh, params)))
    pattern = (A != 0).astype(np.int8)
    assert (pattern != pattern.T).nnz == 0  # structurally symmetric
    rhs = np.random.default_rng(n_rings).normal(size=A.shape[0])

    lu = _factorize(A, ORDER[kind](mesh))
    ref = splu(A)
    x, x_ref = lu.solve(rhs), ref.solve(rhs)
    assert np.linalg.norm(x - x_ref) <= SOLVE_RTOL * np.linalg.norm(x_ref)
    assert lu.nnz <= FILL_RATIO_MAX[kind] * ref.nnz


@pytest.mark.parametrize("n_rings", [2, 3, 16])
def test_dissection_order_is_a_permutation(n_rings):
    mesh = tb.build_mesh(n_rings)
    order = dissection_order(mesh)
    assert np.array_equal(np.sort(order), np.arange(mesh.n_nodes))


def test_dissection_order_deterministic_and_cached():
    a, b = tb.build_mesh(16), tb.build_mesh(16)
    order = dissection_order(a)
    assert np.array_equal(order, dissection_order(b))
    assert dissection_order(a) is order
    assert not order.flags.writeable


def test_derived_orders_are_permutations(mesh16):
    order = dissection_order(mesh16)
    interior = mesh16.interior_nodes()
    inner = _restrict_order(order, interior)
    assert np.array_equal(np.sort(inner), np.arange(interior.size))
    # the interior nodes keep their relative elimination order
    assert np.array_equal(interior[inner], order[np.isin(order, interior)])


def test_benchmark_tracer_self_test():
    """One ``splu`` call and one solve of its factor per Newton step (n_rings 8)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.self_test() == []


def test_nested_newton_factors_once_per_step_at_n32(params):
    """The nested start's extrapolation and relaxation factor and solve nothing.

    Traced with the benchmark's tracer, loaded read-only as above, a nested
    P1 Newton solve still makes one factor and one triangular solve per step
    over all its levels.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mesh = tb.build_mesh(32)
    prob = tb.ProblemP1(1.5, tb.DiskField(mesh, 1.0 + 0.2 * mesh.nodes[:, 0]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracing.solvers.solve_p1_newton(mesh, params, prob)
    finally:
        tracer.restore()
    counts = tracing.layer_metrics(tracer.spans, 1)
    factors = counts["solvers.factor_count"][0]
    assert factors == counts["solvers.iterations"][0] == counts["solvers.trisolve_count"][0] > 0
    assert tracing.restored()


def test_p1_variational_is_one_solver_span(params):
    """A P1 variational solve runs the shared core, not another public solver.

    A nested public solve would open a second solver span and count its
    iterations twice in the benchmark's ``solvers.iterations``.  The tracer
    is loaded from its file, read-only, as in the self-test above.
    """
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mesh = tb.build_mesh(8)
    prob = tb.ProblemP1(1.0, tb.DiskField(mesh, 1.0 + 0.2 * mesh.nodes[:, 0]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracing.solvers.solve_p1_variational(mesh, params, prob)
    finally:
        tracer.restore()
    names = [rec["name"] for rec in tracer.spans]
    assert names.count("solvers.p1_variational") == 1
    assert "solvers.p2_variational" not in names and "solvers.p1_newton" not in names
    assert tracing.restored()
