"""The variational route's descent runs on the coarsest level; the minimizer it selects is not worse.

Without ``init`` the descent runs on the coarsest level of the ring
hierarchy and nested Newton carries its minimizer up.  With ``init`` the
finest level is the only one, so the descent and its Newton polish run
there, as the single-level route always did.  Where several critical
points exist, beyond the existence window, a minimizer of a mesh too
coarse to resolve the data can lead to a different one: with the descent
on 2 rings, the last row below ends 2.14 higher in energy, so the
descent's coarsest level has 8 rings.  A level whose data admit no
solution hands nothing up, and the level above starts from the descent.
"""

import math
import warnings

import numpy as np
import pytest

import torusbvp as tb

N_RINGS = 16


def _problem(mesh, p, case):
    t = mesh.nodes[:, 0]

    def field(vals):
        return tb.DiskField(mesh, vals)

    if case == "p1_gamma1":
        return tb.ProblemP1(1.0, field(1.0 + 0.2 * t))
    if case == "p1_gamma0":
        return tb.ProblemP1(0.0, field(t - 0.3))
    if case == "p2_zero":
        return tb.ProblemP2(0.0, 0.0, field(t + 0.55), field(0.0 * t))
    if case == "p2_half":
        return tb.ProblemP2(0.5, 0.5, field(-1.0 - 0.3 * t), field(-1.0 + 0.0 * t))
    # a = b > 0 at 3 times the window 1 / (2 mu_best) of nonzero boundary data
    ab = 3.0 / (2.0 * tb.mu_best(p, "boundary_trace")) / (p.volume() + p.boundary_area())
    return tb.ProblemP2(ab, ab, field(-1.0 - 0.2 * t), field(-1.0 - 0.2 * t))


@pytest.mark.parametrize("case", ["p1_gamma1", "p1_gamma0", "p2_zero", "p2_half", "p2_beyond_window"])
def test_nested_minimizer_energy_is_not_above_the_single_level_one(params, case):
    """Energies agree to the first-order change the residual tolerance allows, ``|lambda| sum(|K|)``.

    A field with weighted residual ``res`` has ``|K| <= res sqrt(sum(weights))``
    (the rows of the equation sum to ``K``), and the energy is stationary on
    {K = 0} with multiplier ``lambda``.  Both fields satisfy that bound on K.
    """
    mesh = tb.build_mesh(N_RINGS)
    prob = _problem(mesh, params, case)
    p1 = isinstance(prob, tb.ProblemP1)
    solve, energy = ((tb.solve_p1_variational, tb.functional_I_p1) if p1
                     else (tb.solve_p2_variational, tb.functional_I_p2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tb.ExistenceWindowWarning)
        nested = solve(mesh, params, prob)
        single = solve(mesh, params, prob, init=tb.DiskField.constant(mesh, 0.0))
    ops = tb.assemble(mesh, params)
    root_weights = math.sqrt(float(np.sum(ops.volume_mass if p1 else ops.volume_mass + ops.boundary_mass)))
    core = prob.as_p2() if p1 else prob
    roundoff = mesh.n_nodes * np.finfo(float).eps
    k_bounds = []
    for rep in (nested, single):
        wev = core.terms(ops)[1] * np.exp(rep.field.values)
        k_bounds.append(rep.residual_norm * root_weights + roundoff * (1.0 + float(np.sum(np.abs(wev)))))
        assert abs(tb.constraint_K(mesh, params, rep.field, core)) <= k_bounds[-1]
    i_nested, i_single = (energy(mesh, params, rep.field, prob) for rep in (nested, single))
    slack = (2.0 if p1 else 1.0) * abs(nested.multiplier) * sum(k_bounds) + roundoff * (1.0 + abs(i_single))
    assert i_nested <= i_single + slack


def test_a_level_without_a_solution_leaves_the_descent_to_the_next(params, mesh16):
    """f = 0.2505 - t^2 has totals -0.050 and +0.002 at 8 and 16 rings, so the 8-ring level has no solution.

    The 16-ring level then starts as the coarsest does, from the descent.
    From zero it would walk down the constant valley, where the field's
    exponential term collapses and the valley test of ``_solve_newton``
    refuses it; identity (6.14) alone could not, at a total this small.
    """
    f = tb.DiskField.from_function(mesh16, lambda t, s: 0.2505 - t * t)
    prob = tb.ProblemP2(0.0, 0.0, f, tb.DiskField.constant(mesh16, 0.0))
    nested = tb.solve_p2_variational(mesh16, params, prob)
    single = tb.solve_p2_variational(mesh16, params, prob, init=tb.DiskField.constant(mesh16, 0.0))
    assert nested.multiplier == pytest.approx(single.multiplier, rel=1e-8)
    assert nested.multiplier > 1e-3  # the valley field reads 5e-9
