"""The solvers' one factorization entry point against SuperLU's defaults.

Each matrix kind the solvers factor is a record plus a diagonal, built here
from the assembled operators: a Dirichlet record for the Jacobian of P1, a
Neumann one for P2's Jacobian and the monotone shift.  ``_factorize``, which
lets SuperLU order the symmetric pattern by minimum degree, must solve
``S[:k, :k] + diag(d[:k])`` as accurately as ``splu`` with its default
(COLAMD) ordering, and with clearly less fill; fill is a count, so a changed
ordering fails deterministically.  A factor and whole solves must leave the
cached stiffness as it was.  The benchmark's tracer must see one factor and
one triangular solve per Newton step of a direct solve; a nested solve
factors only its levels under 16 rings, and each cycle of a level above
ends in one triangular solve at the bottom of its V-cycle.  Every public
solve is one solver span.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import torusbvp as tb
from torusbvp.solvers import Record, _factorize

SOLVE_RTOL = 1e-12


def _smooth(mesh):
    return 0.3 * mesh.nodes[:, 0] - 0.2 * mesh.nodes[:, 1] ** 2


def _record(ops, k):
    return Record(ops.stiffness, None, None, None, ops.diagonal, k)


def p1_jacobian_masked(mesh, ops):
    """Dirichlet record and the P1 Newton shift -m f e^v: the interior block of S - diag(m f e^v)."""
    f = 1.0 + 0.2 * mesh.nodes[:, 0]
    return _record(ops, mesh.n_interior), -(ops.volume_mass * f * np.exp(_smooth(mesh)))


def p2_jacobian(mesh, ops):
    """Neumann record and the P2 Newton shift m f e^v + mb g e^v."""
    f = -0.5 * math.exp(-1.0) * (1.0 + 0.1 * mesh.nodes[:, 0])
    ev = np.exp(_smooth(mesh))
    return _record(ops, mesh.n_nodes), ops.volume_mass * f * ev + ops.boundary_mass * f * ev


def monotone_shifted(mesh, ops):
    """Neumann record and the monotone shift |m f + mb g| e^super.

    The data are a = b = -1, f = 1 + t^2/2, g = 1, whose constant
    supersolution is zero, so the shift is |m f + mb g|.
    """
    w = ops.volume_mass * (1.0 + 0.5 * mesh.nodes[:, 0] ** 2) + ops.boundary_mass
    return _record(ops, mesh.n_nodes), np.abs(w)


# kind -> largest allowed nnz(L+U) relative to the default ordering's
FILL_RATIO_MAX = {p1_jacobian_masked: 0.8, p2_jacobian: 0.8, monotone_shifted: 0.8}


@pytest.mark.parametrize("n_rings", [16, 32, 64])
@pytest.mark.parametrize("kind", list(FILL_RATIO_MAX), ids=lambda k: k.__name__)
def test_factorize_against_default_splu(params, kind, n_rings):
    mesh = tb.build_mesh(n_rings)
    eq, d = kind(mesh, tb.assemble(mesh, params))
    k = eq.k
    A = (eq.S[:k, :k] + sp.diags(d[:k])).tocsc()
    pattern = (A != 0).astype(np.int8)
    assert (pattern != pattern.T).nnz == 0  # structurally symmetric
    rhs = np.random.default_rng(n_rings).normal(size=k)

    lu = _factorize(eq, d)
    ref = splu(A)
    x, x_ref = lu.solve(rhs), ref.solve(rhs)
    assert np.linalg.norm(x - x_ref) <= SOLVE_RTOL * np.linalg.norm(x_ref)
    assert lu.nnz <= FILL_RATIO_MAX[kind] * ref.nnz


def test_exactly_singular_matrix_is_a_singular_jacobian():
    """SuperLU's "Factor is exactly singular" reaches the caller as ``SingularJacobian``: here of diag(1, 0, 2)."""
    S = sp.identity(3, format="csr")
    with pytest.raises(tb.SingularJacobian, match="exactly singular"):
        _factorize(Record(S, None, None, None, S.diagonal(), 3), np.array([0.0, -1.0, 1.0]))


def test_factors_and_solves_leave_the_cached_stiffness_unchanged(params):
    """A factor of a Dirichlet and a Neumann record and whole P1 and P2 solves write no byte of the cached stiffness.

    ``_factorize`` sets the diagonal of a copy; the cache, shared by every
    solve on the mesh, keeps the bits it was assembled with.
    """
    mesh = tb.build_mesh(16)
    ops = tb.assemble(mesh, params)
    S = ops.stiffness

    def snapshot():
        return [getattr(S, part).tobytes() for part in ("data", "indices", "indptr")] + [ops.diagonal.tobytes()]

    before = snapshot()
    for kind in (p1_jacobian_masked, p2_jacobian):
        _factorize(*kind(mesh, ops))
    t = mesh.nodes[:, 0]
    tb.solve_p1_newton(mesh, params, tb.ProblemP1(1.5, tb.DiskField(mesh, 1.0 + 0.2 * t)))
    p2 = tb.ProblemP2(1.0, 0.0, tb.DiskField(mesh, -(1.0 + 0.1 * t)), tb.DiskField.constant(mesh, 0.0))
    for solve in (tb.solve_p2_newton, tb.solve_p2_variational):  # the second factors the descent's whole matrix
        assert solve(mesh, params, p2).factorizations > 0
    assert tb.assemble(mesh, params).stiffness is S
    assert snapshot() == before


def test_benchmark_tracer_self_test():
    """One ``splu`` call and one solve of its factor per Newton step (n_rings 8)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.self_test() == []


def test_nested_newton_factors_once_per_step_at_n32(params):
    """Every step of a level under 16 rings factors once; the levels of 16 and 32 rings factor nothing.

    The nested start, the field below prolonged, factors and solves
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
