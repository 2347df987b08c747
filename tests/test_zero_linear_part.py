"""P2 with a = b = 0, solved up to its multiplier, by the nested route of Newton and of the variational solver.

Along the constant fields ``v = -L`` the residual ``S v + w e^v`` of
these data tends to zero with no solution in sight.  Newton started from
zero once walked down that valley and reported ``v = -23`` as converged;
now it starts the coarsest level from the constrained descent, as the
variational route does.  On every level a field is accepted only if its
residual, relative to Newton's reference and stop, is small against its
own exponential term ``w e^v``, which collapses down the valley; Newton
stops at ``r0 * 1e-6`` or below whatever the options (a coarse level may
stop at its fraction of its start's residual instead), so a loose
tolerance cannot let a valley field meet the test.  A coarse level that
fails the test hands nothing up, and the next level starts from its own
descent.  A finest level that fails that test, or raises, after starting
from the field handed up from below is solved once more as the coarsest
level is: from zero, through the descent.  Only an a = b = 0 level
restarts.

On these data ``solve_p2_newton`` and ``solve_p2_variational`` run the same
code, ``_solve_newton(..., descent=True)`` with the same arguments, so the
agreement of their fields cannot fail; what binds here is identity (6.14)
on each returned field.  The independent a = b = 0 route is the
single-level solve started from zero (``init = zero``), and the rows of
``f = 0.2505 - t^2``, a total near zero, must return its field bit for bit.
"""

import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import torusbvp as tb
from torusbvp import cli, solvers
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


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("l, r", GEOMETRIES, ids=["2-1", "3-0.5", "1.2-1"])
@pytest.mark.parametrize("name", ["f_both_signs", "g_both_signs", "readme"])
def test_the_descent_hands_newton_no_residual_along_its_exponential_term(monkeypatch, name, l, r, n):
    """The coarsest level's start residual is orthogonal to ``w e^v0`` in Newton's weights.

    ``F(v + ln kappa) = S v + kappa w e^v`` is linear in ``kappa``, and the
    descent takes the ``kappa`` of least weighted residual, so what is left
    has no part along ``w e^v0``.  With ``kappa`` from the continuum identity
    ``int(|grad v|^2 e^-v) / (int f + bint g)`` the whole start residual lay
    along it: the cosine read 1.000 in size.
    """
    starts = []
    real_loop = solvers._newton_loop

    def recording_loop(eq, v0, weights, *args, **kwargs):
        starts.append((eq, v0.copy(), weights))
        return real_loop(eq, v0, weights, *args, **kwargs)

    monkeypatch.setattr(solvers, "_newton_loop", recording_loop)
    mesh = ring_mesh(n)
    tb.solve_p2_newton(mesh, tb.TorusParams(l, r), zero_linear_part(mesh, name))
    eq, v0, weights = starts[0]
    F, e = solvers._residual(eq, v0), eq.w * np.exp(v0)
    cosine = np.sum(F * e / weights) / math.sqrt(np.sum(F * F / weights) * np.sum(e * e / weights))
    assert abs(cosine) <= 1e-5


def test_readme_data_converge_by_newton_at_128_rings():
    """Before the descent start Newton stalled here at residual 8.0e-10."""
    p, mesh = tb.TorusParams(2.0, 1.0), tb.build_mesh(128)
    prob = zero_linear_part(mesh, "readme")
    rep = tb.solve_p2_newton(mesh, p, prob)
    assert rep.field.values.min() > -5.0
    res614 = tb.identity_6_14_residual(mesh, p, rep.field, prob)
    assert abs(res614) <= 10 * mesh.h**2 * id614_scale(mesh, p, prob, rep.field)


def test_a_start_on_the_constant_valley_is_not_converged(params, mesh32):
    """From v = -23 the residual already meets Newton's tolerance; identity (6.14) reads int(f) there."""
    prob = zero_linear_part(mesh32, "readme")
    with pytest.raises(tb.NonConvergence, match=r"exponential term w e\^v has collapsed"):
        tb.solve_p2_newton(mesh32, params, prob, init=tb.DiskField.constant(mesh32, -23.0))


@pytest.mark.parametrize("tol_abs, tol_rel", [(1e-10, 1e-3), (1e-10, 1e-2), (1.0, 0.5)])
def test_loose_tolerances_do_not_admit_the_valley(params, mesh32, tol_abs, tol_rel):
    """At v = -23 the ratio is r0 / tol, below 1e3 for tol_rel >= 1e-3; the valley stop, r0 * 1e-6, keeps it at 1e6."""
    prob = zero_linear_part(mesh32, "readme")
    opts = tb.SolveOptions(tol_abs=tol_abs, tol_rel=tol_rel)
    with pytest.raises(tb.NonConvergence, match=r"exponential term w e\^v has collapsed"):
        tb.solve_p2_newton(mesh32, params, prob, init=tb.DiskField.constant(mesh32, -23.0), opts=opts)
    rep = tb.solve_p2_newton(mesh32, params, prob, opts=opts)
    r0 = tb.p2_residual_norm(mesh32, params, prob, tb.DiskField.constant(mesh32, 0.0))
    assert rep.residual_norm <= 1e-6 * r0
    assert np.allclose(rep.field.values, tb.solve_p2_newton(mesh32, params, prob).field.values, rtol=0, atol=1e-6)


def small_total(mesh):
    """f = 0.2505 - t^2, g = 0: totals -0.050, +0.002 and +0.015 at 8, 16 and 32 rings on l, r = 2, 1."""
    return tb.ProblemP2(0.0, 0.0, tb.DiskField.from_function(mesh, lambda t, s: 0.2505 - t * t),
                        tb.DiskField.constant(mesh, 0.0))


@functools.lru_cache(maxsize=None)
def single_level(l, r, tol=1e-10):
    """The 32-ring field of ``small_total`` by the independent route: one level, from zero through the descent."""
    mesh = ring_mesh(32)
    return tb.solve_p2_variational(mesh, tb.TorusParams(l, r), small_total(mesh), init=tb.DiskField.constant(mesh, 0.0),
                                   opts=tb.SolveOptions(tol_abs=tol, tol_rel=tol)).field.values


@pytest.mark.parametrize("solve", [tb.solve_p2_newton, tb.solve_p2_variational], ids=["newton", "variational"])
@pytest.mark.parametrize("l, r", [(3.0, 0.5), (1.2, 1.0)], ids=["3-0.5", "1.2-1"])
def test_a_valley_field_handed_up_is_refused_and_the_finest_level_restarts(l, r, solve):
    """From the 16-ring field the 32-ring Newton walked down the valley, to mean -20.14 and -28.15, reported converged.

    The data total is below identity (6.14)'s old O(h^2) budget, so that
    guard let the valley field through; its collapsed exponential term does
    not pass the valley test, and the restart returns the single-level field.
    """
    mesh = ring_mesh(32)
    assert np.array_equal(solve(mesh, tb.TorusParams(l, r), small_total(mesh)).field.values, single_level(l, r))


def test_the_cli_writes_the_single_level_field_where_the_valley_was_taken(tmp_path):
    """``solve-p2`` on this config exited 0 writing -20.1386 as every value."""
    config = tmp_path / "run.ini"
    config.write_text("[geometry]\nl = 3.0\nr = 0.5\n[mesh]\nn_rings = 32\n"
                      "[problem]\na = 0\nb = 0\nf = 0.2505 - t*t\ng = 0\n")
    assert cli.main(["solve-p2", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    values = np.loadtxt(tmp_path / "o" / "solution.csv", delimiter=",", skiprows=2, usecols=3)
    assert np.array_equal(values, single_level(3.0, 0.5))


def test_the_valley_test_is_tied_to_newtons_tolerance(params):
    """At tolerances of 1e-4 the field handed up walks down the valley and is refused; the restart's field passes."""
    mesh = ring_mesh(32)
    rep = tb.solve_p2_newton(mesh, params, small_total(mesh), opts=tb.SolveOptions(tol_abs=1e-4, tol_rel=1e-4))
    assert np.array_equal(rep.field.values, single_level(2.0, 1.0, 1e-4))


def test_readme_data_converge_at_64_rings_on_a_thick_torus():
    """From the field handed up, the finest Newton stalled at residual 11.24; started from its descent it converges."""
    p, mesh = tb.TorusParams(1.2, 1.0), ring_mesh(64)
    prob = zero_linear_part(mesh, "readme")
    rep = tb.solve_p2_newton(mesh, p, prob)
    assert rep.residual_norm <= 1e-9
    res614 = tb.identity_6_14_residual(mesh, p, rep.field, prob)
    assert abs(res614) <= 10 * mesh.h**2 * id614_scale(mesh, p, prob, rep.field)


def test_a_nonzero_linear_part_does_not_restart(params):
    """Only an a = b = 0 finest level restarts from its descent: with a = 1 a stall at max_iter = 1 raises.

    Restarted, this level would converge (the descent ends near the
    solution), so the row tells the gated restart from an ungated one.
    """
    mesh = ring_mesh(32)
    prob = tb.ProblemP2(1.0, 0.0, tb.DiskField.from_function(mesh, lambda t, s: -(1.0 + 3.0 * t)),
                        tb.DiskField.constant(mesh, 0.0))
    with pytest.raises(tb.NonConvergence, match="in 1 iterations"):
        tb.solve_p2_variational(mesh, params, prob, opts=tb.SolveOptions(max_iter=1))


def test_a_valley_field_is_refused_on_a_coarse_level(params, newton_levels):
    """The 32-ring level walks down the valley and hands nothing up; the 64-ring level starts from its own descent.

    Tested only on the finest level, the 32-ring field was handed up, and
    the 64-ring level ran twice: from that field, then restarted from its
    descent, to the same field as now.
    """
    mesh = ring_mesh(64)
    rep = tb.solve_p2_newton(mesh, params, small_total(mesh))
    assert [n for n, _, _ in newton_levels] == [ring_mesh(16).n_nodes, mesh.n_nodes]
    ref = tb.solve_p2_variational(mesh, params, small_total(mesh), init=tb.DiskField.constant(mesh, 0.0))
    assert np.array_equal(rep.field.values, ref.field.values)
