"""P2 with a = b = 0, solved up to its multiplier, by the nested route of Newton and of the variational solver.

Along the constant fields ``v = -L`` the residual ``S v + w e^v`` of
these data tends to zero with no solution in sight.  Newton started from
zero once walked down that valley and reported ``v = -23`` as converged;
now it starts the coarsest level from the constrained descent, as the
variational route does, and a field that misses identity (6.14) is not
reported converged.

On these data ``solve_p2_newton`` and ``solve_p2_variational`` run the same
code, ``_solve_newton(..., descent=True)`` with the same arguments, so the
agreement of their fields cannot fail; what binds here is identity (6.14)
on each returned field.  The independent a = b = 0 route is the
single-level solve started from zero (``init = zero``).
"""

import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import torusbvp as tb
from test_solvers_p2 import id614_scale

GEOMETRIES = [(2.0, 1.0), (3.0, 0.5), (1.2, 1.0)]
DATA = {  # (f, g): exponential terms of both signs with positive total
    "readme": (lambda t, s: t + 0.55, lambda t, s: 0.0 * t),
    "f_both_signs": (lambda t, s: t * t + s * s - 0.2, lambda t, s: 0.0 * t),
    "g_both_signs": (lambda t, s: 0.0 * t, lambda t, s: t + 0.8),
}


@functools.lru_cache(maxsize=None)
def ring_mesh(n):
    """One mesh per ring count for the whole table: its hierarchy and transfers serve every geometry."""
    return tb.build_mesh(n)


def zero_linear_part(mesh, name):
    f, g = DATA[name]
    return tb.ProblemP2(0.0, 0.0, tb.DiskField.from_function(mesh, f), tb.DiskField.from_function(mesh, g))


def l2_norm(mesh, p, vals):
    return math.sqrt(float(tb.assemble(mesh, p).volume_mass @ (vals * vals)))


def newton_corrections(mesh, p, prob, fields, at):
    """M-weighted norms of ``J(at)^-1 F(v)``, ``F(v) = S v + w e^v``, for each ``v`` in ``fields``.

    For a field near the solution ``at``, that is its distance to the
    solution to second order: what the solver's residual tolerance leaves.
    """
    ops = tb.assemble(mesh, p)
    w = prob.terms(ops)[1]
    lu = splu(sp.csc_matrix(ops.stiffness + sp.diags(w * np.exp(at))))
    return [l2_norm(mesh, p, lu.solve(ops.stiffness @ v + w * np.exp(v))) for v in fields]


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("l, r", GEOMETRIES, ids=["2-1", "3-0.5", "1.2-1"])
@pytest.mark.parametrize("name", sorted(DATA))
def test_newton_and_variational_agree(name, l, r, n):
    """Each field passes identity (6.14); the agreement bound cannot fail, as both solvers run one route.

    The bound (two fields of one discrete solution differ by at most twice
    the sum of their Newton corrections) compares the nested a = b = 0 route
    with itself.  An independent check would compare against ``init = zero``.
    """
    p, mesh = tb.TorusParams(l, r), ring_mesh(n)
    prob = zero_linear_part(mesh, name)
    newton = tb.solve_p2_newton(mesh, p, prob)
    variational = tb.solve_p2_variational(mesh, p, prob)
    u, v = newton.field.values, variational.field.values
    bound = 2.0 * sum(newton_corrections(mesh, p, prob, (u, v), at=v))
    assert l2_norm(mesh, p, u - v) <= bound + 64 * np.finfo(float).eps * l2_norm(mesh, p, v)
    for rep in (newton, variational):
        res614 = tb.identity_6_14_residual(mesh, p, rep.field, prob)
        assert abs(res614) <= 10 * mesh.h**2 * id614_scale(mesh, p, prob, rep.field)


def test_readme_data_converge_by_newton_at_128_rings():
    """Before the descent start Newton stalled here at residual 8.0e-10."""
    p, mesh = tb.TorusParams(2.0, 1.0), tb.build_mesh(128)
    prob = zero_linear_part(mesh, "readme")
    rep = tb.solve_p2_newton(mesh, p, prob)
    assert rep.converged and rep.field.values.min() > -5.0
    res614 = tb.identity_6_14_residual(mesh, p, rep.field, prob)
    assert abs(res614) <= 10 * mesh.h**2 * id614_scale(mesh, p, prob, rep.field)


def test_a_start_on_the_constant_valley_is_not_converged(params, mesh32):
    """From v = -23 the residual already meets Newton's tolerance; identity (6.14) reads int(f) there."""
    prob = zero_linear_part(mesh32, "readme")
    with pytest.raises(tb.NonConvergence, match=r"identity \(6\.14\)"):
        tb.solve_p2_newton(mesh32, params, prob, init=tb.DiskField.constant(mesh32, -23.0))
