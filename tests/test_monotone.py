import math

import numpy as np
import pytest

import torusbvp as tb


def regime_problem(mesh):
    one = tb.DiskField.constant(mesh, 1.0)
    return tb.ProblemP2(-1.0, -1.0, one, one)


def test_constant_bracket_binding_values(params, mesh16):
    sub, sup = tb.find_constant_bracket(mesh16, params, regime_problem(mesh16))
    assert np.all(sub.values == 0.0)
    assert np.all(sup.values == 0.0)


def test_constant_bracket_ordered_for_nonconstant_data(params, mesh16):
    # a = b = -1, f = 1 + t^2/2 in [1, 1.5], g = 1: the subsolution needs
    # e^c <= 1/max f, the supersolution e^c >= 1/min f, so c- < c+ strictly
    f = tb.DiskField.from_function(mesh16, lambda t, s: 1.0 + 0.5 * t * t)
    prob = tb.ProblemP2(-1.0, -1.0, f, tb.DiskField.constant(mesh16, 1.0))
    sub, sup = tb.find_constant_bracket(mesh16, params, prob)
    assert np.allclose(sub.values, -math.log(1.5), rtol=0.0, atol=1e-14)
    assert np.all(sup.values == 0.0)
    rep = tb.solve_p2_monotone(mesh16, params, prob, sub, sup)
    assert np.all(rep.field.values >= sub.values)
    assert np.all(rep.field.values <= sup.values)
    assert rep.residual_norm <= 1e-8


# (a, b, f, g, most monotone steps): with the nodewise shift |w| e^super and
# Newton's residual stop the counts are 9, 21 and 23 at 16 to 256 rings; the
# shift is zero at every interior node of the third row, where f = 0
MONOTONE_ROWS = [
    (-1.0, -1.0, lambda t, s: 1.0 + 0.5 * t * t, lambda t, s: 1.0, 12),
    (-1.0, 0.0, lambda t, s: 1.0 + 0.3 * t, lambda t, s: 0.0, 25),
    (0.0, -1.0, lambda t, s: 0.0, lambda t, s: 1.0 + 0.3 * t, 25),
]


@pytest.mark.parametrize("n_rings", [16, 32])
def test_monotone_iteration_and_newton_reach_the_same_solution(params, n_rings):
    """On each row's data the defect correction takes at most the row's steps and agrees with Newton."""
    mesh = tb.build_mesh(n_rings)
    for a, b, f, g, most_steps in MONOTONE_ROWS:
        prob = tb.ProblemP2(a, b, tb.DiskField.from_function(mesh, f), tb.DiskField.from_function(mesh, g))
        sub, sup = tb.find_constant_bracket(mesh, params, prob)
        monotone = tb.solve_p2_monotone(mesh, params, prob, sub, sup)
        newton = tb.solve_p2_newton(mesh, params, prob)
        assert monotone.iterations <= most_steps
        assert np.max(np.abs(monotone.field.values - newton.field.values)) <= 1e-8


def test_constant_bracket_rejections(params, mesh16):
    one = tb.DiskField.constant(mesh16, 1.0)
    zero = tb.DiskField.constant(mesh16, 0.0)
    minus = tb.DiskField.constant(mesh16, -1.0)
    # a=0 with strictly positive f: the subsolution inequality cannot hold
    with pytest.raises(tb.NoBracket):
        tb.find_constant_bracket(mesh16, params, tb.ProblemP2(0.0, -1.0, one, one))
    # boundary data positive with b=0: same obstruction on the boundary
    with pytest.raises(tb.NoBracket):
        tb.find_constant_bracket(mesh16, params, tb.ProblemP2(-1.0, 0.0, zero, one))
    # a zero linear part with negative data admits no constant supersolution; the message names that data
    with pytest.raises(tb.NoBracket, match="a = 0 with negative f"):
        tb.find_constant_bracket(mesh16, params, tb.ProblemP2(0.0, -1.0, minus, one))
    with pytest.raises(tb.NoBracket, match="b = 0 with negative boundary data"):
        tb.find_constant_bracket(mesh16, params, tb.ProblemP2(-1.0, 0.0, one, minus))
    # regime precondition
    with pytest.raises(tb.DomainError):
        tb.find_constant_bracket(mesh16, params, tb.ProblemP2(1.0, -1.0, one, one))
    with pytest.raises(tb.DomainError):
        tb.find_constant_bracket(mesh16, params, tb.ProblemP2(0.0, 0.0, one, one))


def test_monotone_from_deep_subsolution(params, mesh16):
    prob = regime_problem(mesh16)
    _, sup = tb.find_constant_bracket(mesh16, params, prob)
    sub = tb.DiskField.constant(mesh16, -10.0)
    opts = tb.SolveOptions(tol_abs=1e-12, tol_rel=1e-12)
    rep = tb.solve_p2_monotone(mesh16, params, prob, sub, sup, opts=opts)
    assert rep.residual_norm <= 1e-8
    assert np.all(rep.field.values <= sup.values + 1e-10)
    assert np.all(rep.field.values >= sub.values - 1e-10)
    # the exact solution of this problem is v = 0
    assert np.abs(rep.field.values).max() <= 1e-7
    indep = tb.p2_residual_norm(mesh16, params, prob, rep.field)
    assert indep <= 2.0 * max(rep.residual_norm, 1e-15)


def test_monotone_exact_fixed_point(params, mesh16):
    prob = regime_problem(mesh16)
    zero = tb.DiskField.constant(mesh16, 0.0)
    rep = tb.solve_p2_monotone(mesh16, params, prob, zero, zero)
    assert rep.iterations == 1
    assert np.abs(rep.field.values).max() <= 1e-12


def test_monotone_factors_only_a_nonzero_residual(params, splu_sizes):
    """The exact fixed point ``F(sub) = 0`` returns exact zeros without a factor; other data factor once."""
    mesh = tb.build_mesh(32)
    zero = tb.DiskField.constant(mesh, 0.0)
    rep = tb.solve_p2_monotone(mesh, params, regime_problem(mesh), zero, zero)
    assert rep.iterations == 1 and rep.factorizations == 0 and splu_sizes == []
    assert np.all(rep.field.values == 0.0)
    a, b, f, g, _ = MONOTONE_ROWS[0]
    prob = tb.ProblemP2(a, b, tb.DiskField.from_function(mesh, f), tb.DiskField.from_function(mesh, g))
    rep = tb.solve_p2_monotone(mesh, params, prob, *tb.find_constant_bracket(mesh, params, prob))
    assert rep.iterations == 9 and rep.factorizations == 1 and splu_sizes == [mesh.n_nodes]


def test_monotone_rejects_disordered_pair(params, mesh16):
    prob = regime_problem(mesh16)
    lo = tb.DiskField.constant(mesh16, 0.5)
    hi = tb.DiskField.constant(mesh16, 0.0)
    with pytest.raises(tb.OrderingViolation):
        tb.solve_p2_monotone(mesh16, params, prob, lo, hi)


def test_monotone_rejects_invalid_subsolution(params, mesh16):
    prob = regime_problem(mesh16)
    # c=1 gives a + f e^c = e - 1 > 0: not a subsolution
    bad_sub = tb.DiskField.constant(mesh16, 1.0)
    hi = tb.DiskField.constant(mesh16, 2.0)
    with pytest.raises(tb.OrderingViolation):
        tb.solve_p2_monotone(mesh16, params, prob, bad_sub, hi)


@pytest.mark.parametrize("l, r", [(2.0, 1.0), (3.0, 0.5), (1.2, 1.0)])
def test_stiffness_has_no_positive_off_diagonal_entry(l, r):
    """The monotone iteration's ``(S + W)^-1 >= 0`` rests on ``S``'s off-diagonal entries being at most zero."""
    for n_rings in (8, 16, 32, 64):
        S = tb.assemble(tb.build_mesh(n_rings), tb.TorusParams(l, r)).stiffness.tocoo()
        assert np.max(S.data[S.row != S.col]) < 0.0
