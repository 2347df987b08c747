"""The solvers' one factorization entry point against SuperLU's defaults.

Each matrix kind the solvers factor is rebuilt here from the assembled
operators, the interior block for the Dirichlet Jacobian.  ``_factorize``,
which lets SuperLU order the symmetric pattern by minimum degree, must
solve it as accurately as ``splu`` with its default (COLAMD) ordering, and
with clearly less fill; fill is a count, so a changed ordering fails
deterministically.  The benchmark's tracer must see one factor and one
triangular solve per Newton step of a direct solve; a nested solve factors
only its levels under 16 rings, and each cycle of a level above ends in one
triangular solve at the bottom of its V-cycle.  Every public solve is one
solver span.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import torusbvp as tb
from torusbvp.solvers import _factorize

SOLVE_RTOL = 1e-12


def _smooth(mesh):
    return 0.3 * mesh.nodes[:, 0] - 0.2 * mesh.nodes[:, 1] ** 2


def p1_jacobian_masked(mesh, ops):
    """Interior block of the P1 Newton Jacobian S - diag(m f e^v)."""
    f = 1.0 + 0.2 * mesh.nodes[:, 0]
    jac = (ops.stiffness - sp.diags(ops.volume_mass * f * np.exp(_smooth(mesh)))).tocsr()
    k = mesh.n_interior
    return jac[:k, :k]


def p2_jacobian(mesh, ops):
    """P2 Newton Jacobian S + diag(m f e^v + mb g e^v)."""
    f = -0.5 * math.exp(-1.0) * (1.0 + 0.1 * mesh.nodes[:, 0])
    ev = np.exp(_smooth(mesh))
    return ops.stiffness + sp.diags(ops.volume_mass * f * ev + ops.boundary_mass * f * ev)


def monotone_shifted(mesh, ops):
    """Shifted matrix of the monotone iteration, S + diag(|m f + mb g| e^super).

    The data are a = b = -1, f = 1 + t^2/2, g = 1, whose constant
    supersolution is zero, so the shift is |m f + mb g|.
    """
    w = ops.volume_mass * (1.0 + 0.5 * mesh.nodes[:, 0] ** 2) + ops.boundary_mass
    return ops.stiffness + sp.diags(np.abs(w))


# kind -> largest allowed nnz(L+U) relative to the default ordering's
FILL_RATIO_MAX = {p1_jacobian_masked: 0.8, p2_jacobian: 0.8, monotone_shifted: 0.8}


@pytest.mark.parametrize("n_rings", [16, 32, 64])
@pytest.mark.parametrize("kind", list(FILL_RATIO_MAX), ids=lambda k: k.__name__)
def test_factorize_against_default_splu(params, kind, n_rings):
    mesh = tb.build_mesh(n_rings)
    A = sp.csc_matrix(kind(mesh, tb.assemble(mesh, params)))
    pattern = (A != 0).astype(np.int8)
    assert (pattern != pattern.T).nnz == 0  # structurally symmetric
    rhs = np.random.default_rng(n_rings).normal(size=A.shape[0])

    lu = _factorize(A)
    ref = splu(A)
    x, x_ref = lu.solve(rhs), ref.solve(rhs)
    assert np.linalg.norm(x - x_ref) <= SOLVE_RTOL * np.linalg.norm(x_ref)
    assert lu.nnz <= FILL_RATIO_MAX[kind] * ref.nnz


def test_exactly_singular_matrix_is_a_singular_jacobian():
    """SuperLU's "Factor is exactly singular" reaches the caller as ``SingularJacobian``."""
    with pytest.raises(tb.SingularJacobian, match="exactly singular"):
        _factorize(sp.diags([1.0, 0.0, 2.0]))


def test_benchmark_tracer_self_test():
    """One ``splu`` call and one solve of its factor per Newton step (n_rings 8)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.self_test() == []


def test_nested_newton_factors_once_per_step_at_n32(params):
    """Every step of a level under 16 rings factors once; the levels of 16 and 32 rings factor nothing.

    The nested start's extrapolation and relaxation factor and solve
    nothing.  Traced with the benchmark's tracer, loaded read-only as above,
    a nested P1 Newton solve makes one factor per step of its levels under
    16 rings, which take the steps of the same solve on the 8-ring mesh, and
    one triangular solve per factor and per cycle; the report's counts are
    the tracer's.
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
        rep = tracing.solvers.solve_p1_newton(mesh, params, prob)
    finally:
        tracer.restore()
    counts = tracing.layer_metrics(tracer.spans, 1)
    small = tb.build_mesh(8)
    factored_steps = tb.solve_p1_newton(small, params, tb.ProblemP1(1.5, tb.DiskField(
        small, 1.0 + 0.2 * small.nodes[:, 0]))).iterations
    assert counts["solvers.iterations"][0] == rep.iterations > factored_steps + len(rep.trace) - 1
    assert counts["solvers.factor_count"][0] == rep.factorizations == factored_steps > 0
    assert rep.two_grid_cycles > 0
    assert counts["solvers.trisolve_count"][0] == rep.factorizations + rep.two_grid_cycles
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
