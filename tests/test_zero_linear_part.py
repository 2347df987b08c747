"""P2 with a = b = 0, solved up to its multiplier, by the nested route of Newton and of the variational solver.

Along the constant fields ``v = -L`` the residual ``S v + w e^v`` of
these data tends to zero with no solution in sight.  Newton on ``F``
alone, started from zero, once walked down that valley and reported ``v
= -23`` as converged.  Every a = b = 0 level now runs Newton on the
optimality system of the descent's own problem, min 0.5 u'Su on {sum(w
e^u) = 0, W u = 0}, with ``v = u + ln(kappa)``: the valley, ``u = 0`` and
``kappa -> 0``, is no root of it, as ``sum(w) > 0``.  A field is returned
only once its residual meets Newton's stop and its constraint row is at
most half its value at zero, the valley's, whatever the options; so
from ``v = -23`` Newton walks out of the valley, under loose options
too, to the nested field.  The coarsest level still starts from the
constrained descent, and a finest level that raises after starting from
the field handed up from below is solved once more from its own
descent.

On these data ``solve_p2_newton`` and ``solve_p2_variational`` run the same
code, ``_solve_newton(..., descent=True)`` with the same arguments, so the
agreement of their fields cannot fail; what binds here is identity (6.14)
on each returned field.  The independent a = b = 0 route is the
single-level solve started from zero (``init = zero``), and the rows of
``f = 0.2505 - t^2``, a total near zero, must land within the bound of its
field.

A field's bound under options ``opts`` is twice their data-only stop,
``tol_abs + tol_rel * r0`` with ``r0`` the weighted residual of zero: a
residual of weighted norm ``rho`` moves these fields by at most ``0.54
rho`` in the max norm (``test_symmetries``), and each of two fields meets
a stop at or below that one.
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

    def recording_loop(eq, v0, *args, **kwargs):
        starts.append((eq, v0.copy(), eq.W))
        return real_loop(eq, v0, *args, **kwargs)

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


def options_bound(mesh, p, prob, opts):
    """Twice the data-only stop of ``opts``: the distance two fields that meet it may lie apart."""
    r0 = tb.p2_residual_norm(mesh, p, prob, tb.DiskField.constant(mesh, 0.0))
    return 2.0 * (opts.tol_abs + opts.tol_rel * r0)


LOOSE = [(1e-10, 1e-3), (1e-10, 1e-2), (1.0, 0.5)]


@pytest.mark.parametrize("tol_abs, tol_rel", [(1e-10, 1e-10)] + LOOSE)
def test_a_start_on_the_constant_valley_walks_out_to_the_nested_field(params, mesh32, tol_abs, tol_rel):
    """From v = -23 the residual already meets Newton's tolerance; the constraint row, at its value at zero, does not.

    Under the default options and each loose set Newton leaves the valley
    and lands within the options' bound of the nested field; none raises.
    The steps read 12, 12, 12 and 9.
    """
    prob = zero_linear_part(mesh32, "readme")
    opts = tb.SolveOptions(tol_abs=tol_abs, tol_rel=tol_rel)
    rep = tb.solve_p2_newton(mesh32, params, prob, init=tb.DiskField.constant(mesh32, -23.0), opts=opts)
    nested = tb.solve_p2_newton(mesh32, params, prob).field.values
    assert rep.iterations >= 1
    assert rep.field.values.min() > -5.0
    assert np.max(np.abs(rep.field.values - nested)) <= options_bound(mesh32, params, prob, opts)


@pytest.mark.parametrize("tol_abs, tol_rel", LOOSE)
def test_loose_tolerances_do_not_admit_the_valley(params, mesh32, tol_abs, tol_rel):
    """The nested solve under loose options lands within their bound of the field under the default ones."""
    prob = zero_linear_part(mesh32, "readme")
    opts = tb.SolveOptions(tol_abs=tol_abs, tol_rel=tol_rel)
    rep = tb.solve_p2_newton(mesh32, params, prob, opts=opts)
    nested = tb.solve_p2_newton(mesh32, params, prob).field.values
    assert np.max(np.abs(rep.field.values - nested)) <= options_bound(mesh32, params, prob, opts)


def small_total(mesh):
    """f = 0.2505 - t^2, g = 0: totals -0.050, +0.002 and +0.015 at 8, 16 and 32 rings on l, r = 2, 1."""
    return tb.ProblemP2(0.0, 0.0, tb.DiskField.from_function(mesh, lambda t, s: 0.2505 - t * t),
                        tb.DiskField.constant(mesh, 0.0))


@functools.lru_cache(maxsize=None)
def single_level(l, r, tol=1e-10, n=32):
    """The field of ``small_total`` by the independent route: one level, from zero through the descent."""
    mesh = ring_mesh(n)
    return tb.solve_p2_variational(mesh, tb.TorusParams(l, r), small_total(mesh), init=tb.DiskField.constant(mesh, 0.0),
                                   opts=tb.SolveOptions(tol_abs=tol, tol_rel=tol)).field.values


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("solve", [tb.solve_p2_newton, tb.solve_p2_variational], ids=["newton", "variational"])
@pytest.mark.parametrize("l, r", [(3.0, 0.5), (1.2, 1.0)], ids=["3-0.5", "1.2-1"])
def test_small_total_descends_once_above_its_infeasible_level(monkeypatch, l, r, solve, n):
    """The 8-ring level, of negative total, hands nothing up; the 16-ring level descends, and no level above it does.

    The 32-ring Newton on F alone walked down the valley from the 16-ring
    field, to mean -20.14 and -28.15, and reported it converged; the
    valley test then refused it, and the finest level restarted from a
    second descent.  On the bordered route every level above 16 rings
    converges from the field handed up.
    """
    descents = []
    real_descend = solvers._descend

    def recording_descend(eq, *args):
        descents.append(eq.k)
        return real_descend(eq, *args)

    monkeypatch.setattr(solvers, "_descend", recording_descend)
    mesh, p = ring_mesh(n), tb.TorusParams(l, r)
    prob = small_total(mesh)
    rep = solve(mesh, p, prob)
    assert descents == [ring_mesh(8).n_nodes, ring_mesh(16).n_nodes]
    monkeypatch.undo()
    bound = options_bound(mesh, p, prob, tb.SolveOptions())
    assert np.max(np.abs(rep.field.values - single_level(l, r, n=n))) <= bound


def test_the_cli_writes_the_nested_field_where_the_valley_was_taken(tmp_path):
    """``solve-p2`` on this config exited 0 writing -20.1386 as every value; now it writes the nested field."""
    config = tmp_path / "run.ini"
    config.write_text("[geometry]\nl = 3.0\nr = 0.5\n[mesh]\nn_rings = 32\n"
                      "[problem]\na = 0\nb = 0\nf = 0.2505 - t*t\ng = 0\n")
    assert cli.main(["solve-p2", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    values = np.loadtxt(tmp_path / "o" / "solution.csv", delimiter=",", skiprows=2, usecols=3)
    mesh, p = ring_mesh(32), tb.TorusParams(3.0, 0.5)
    assert np.array_equal(values, tb.solve_p2_newton(mesh, p, small_total(mesh)).field.values)
    assert np.max(np.abs(values - single_level(3.0, 0.5))) <= options_bound(mesh, p, small_total(mesh), tb.SolveOptions())


def test_loose_tolerances_keep_the_small_total_field_within_their_bound(params):
    """At tolerances of 1e-4 the field handed up once walked down the valley; now it lands by the single-level field."""
    mesh = ring_mesh(32)
    opts = tb.SolveOptions(tol_abs=1e-4, tol_rel=1e-4)
    rep = tb.solve_p2_newton(mesh, params, small_total(mesh), opts=opts)
    assert np.max(np.abs(rep.field.values - single_level(2.0, 1.0, 1e-4))) <= options_bound(mesh, params, small_total(mesh), opts)


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
