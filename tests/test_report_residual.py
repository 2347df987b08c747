"""A report's residual and constraint are the public ones of its returned field, bit for bit, on every route.

A route may steer its line search by another merit (the bordered a = b =
0 route adds its constraint row and multiplier), but what it reports is
``p1_residual_norm`` (interior rows for the Dirichlet Newton route, all
rows for the variational one) or ``p2_residual_norm`` of its field.  The
report reads the constraint from the solve's own record, the sum of its
rows; it is ``constraint_A_p1`` or ``constraint_K`` of the field, which
build the terms afresh.
"""

import math

import numpy as np
import pytest

import torusbvp as tb

# the P2 Newton data lie outside the sufficient existence window; the field exists all the same
pytestmark = pytest.mark.filterwarnings("ignore::torusbvp.errors.ExistenceWindowWarning")


def p1(gamma, f):
    return lambda mesh: tb.ProblemP1(gamma, tb.DiskField(mesh, f(mesh.nodes[:, 0])))


def p2(a, f):
    return lambda mesh: tb.ProblemP2(a, a, tb.DiskField(mesh, f(mesh.nodes[:, 0])),
                                     tb.DiskField(mesh, f(mesh.nodes[:, 0]) if a else 0.0 * mesh.nodes[:, 0]))


def monotone(mesh, p, prob):
    """The monotone route between the constant subsolution -ln(1.5) and the supersolution 0."""
    return tb.solve_p2_monotone(mesh, p, prob, tb.DiskField.constant(mesh, -math.log1p(0.5)),
                                tb.DiskField.constant(mesh, 0.0))


def natural(mesh, p, prob, field):
    return tb.p1_residual_norm(mesh, p, prob, field, natural=True)


ROUTES = {  # name: (solver, problem on a mesh, residual of a field, constraint of a field)
    "p1_newton": (tb.solve_p1_newton, p1(1.5, lambda t: 1.0 + 0.2 * t), tb.p1_residual_norm, tb.constraint_A_p1),
    "p2_newton": (tb.solve_p2_newton, p2(0.5, lambda t: -0.5 * math.exp(-1.0) * (1.0 + 0.1 * t)),
                  tb.p2_residual_norm, tb.constraint_K),
    "p1_variational": (tb.solve_p1_variational, p1(1.5, lambda t: 1.0 + 0.2 * t), natural, tb.constraint_A_p1),
    "p1_variational_gamma0": (tb.solve_p1_variational, p1(0.0, lambda t: -(t + 0.55)), natural,
                              tb.constraint_A_p1),
    "p2_variational_zero_linear": (tb.solve_p2_variational, p2(0.0, lambda t: t + 0.55), tb.p2_residual_norm,
                                   tb.constraint_K),
    "p2_monotone": (monotone, p2(-1.0, lambda t: 1.0 + 0.5 * t * t), tb.p2_residual_norm, tb.constraint_K),
}


@pytest.mark.parametrize("n", [8, 16, 33])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_the_reported_residual_is_the_public_residual_of_the_field(params, route, n):
    solve, problem, residual, _ = ROUTES[route]
    mesh = tb.build_mesh(n)
    prob = problem(mesh)
    rep = solve(mesh, params, prob)
    assert np.isfinite(rep.residual_norm)
    assert rep.residual_norm == residual(mesh, params, prob, rep.field)


@pytest.mark.parametrize("n", [8, 16, 33])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_the_reported_constraint_is_the_public_constraint_of_the_field(params, route, n):
    solve, problem, _, constraint = ROUTES[route]
    mesh = tb.build_mesh(n)
    prob = problem(mesh)
    rep = solve(mesh, params, prob)
    assert np.isfinite(rep.constraint_value)
    assert rep.constraint_value == constraint(mesh, params, rep.field, prob)
