import math
import warnings

import numpy as np
import pytest

import torusbvp as tb
from oracles import fit_order


def fields(mesh, fval, gval):
    return tb.DiskField.constant(mesh, fval), tb.DiskField.constant(mesh, gval)


def manufactured_p2(n, c=0.3, a=0.5, b=-0.2, l=2.0, r=1.0):
    """Radial solution c(2 - t^2 - s^2) with matched volume and boundary data."""
    p = tb.TorusParams(l, r)
    mesh = tb.build_mesh(n)
    t, s = mesh.nodes[:, 0], mesh.nodes[:, 1]
    vstar = c * (2.0 - t * t - s * s)
    lap = (2.0 * c / r**2) * (2.0 + r * t / (l + r * t))
    f = -(lap + a) * np.exp(-vstar)
    dvdn = -2.0 * c / r
    g = -(dvdn + b) * np.exp(-vstar)
    return p, mesh, tb.ProblemP2(a, b, tb.DiskField(mesh, f), tb.DiskField(mesh, g)), vstar


def l2_norm(mesh, p, vals):
    ops = tb.assemble(mesh, p)
    return math.sqrt(float(ops.volume_mass @ (vals * vals)))


def k_scale(mesh, p, prob, field):
    ops = tb.assemble(mesh, p)
    ev = np.exp(field.values)
    return (abs(prob.a) * p.volume() + abs(prob.b) * p.boundary_area()
            + float(ops.volume_mass @ np.abs(prob.f.values * ev))
            + float(ops.boundary_mass @ np.abs(prob.g.values * ev)) + 1.0)


def id614_scale(mesh, p, prob, field):
    ops = tb.assemble(mesh, p)
    emv = np.exp(-field.values)
    return (abs(prob.a) * float(ops.volume_mass @ emv) + abs(prob.b) * float(ops.boundary_mass @ emv)
            + abs(float(ops.volume_mass @ prob.f.values)) + abs(float(ops.boundary_mass @ prob.g.values))
            + tb.grad_energy_weighted(mesh, p, field) + 1.0)


def test_exact_constant_volume_case(params, mesh16):
    f, g = fields(mesh16, -math.exp(-1.0), 0.0)
    rep = tb.solve_p2_newton(mesh16, params, tb.ProblemP2(1.0, 0.0, f, g))
    assert np.abs(rep.field.values - 1.0).max() <= 1e-10
    assert abs(rep.constraint_value) <= 1e-9


def test_exact_constant_boundary_case(params, mesh16):
    f, g = fields(mesh16, 0.0, -math.exp(-2.0))
    rep = tb.solve_p2_newton(mesh16, params, tb.ProblemP2(0.0, 1.0, f, g))
    assert np.abs(rep.field.values - 2.0).max() <= 1e-10


def test_manufactured_robin_convergence():
    errs = []
    for n in (8, 16, 32, 64):
        p, mesh, prob, vstar = manufactured_p2(n)
        rep = tb.solve_p2_newton(mesh, p, prob)
        errs.append(l2_norm(mesh, p, rep.field.values - vstar))
    assert 1.7 <= fit_order(errs) <= 2.3


def test_converged_solutions_satisfy_identities(params):
    cases = []
    p, mesh, prob, _ = manufactured_p2(16)
    cases.append((mesh, p, prob, tb.solve_p2_newton(mesh, p, prob)))
    f, g = fields(mesh, -math.exp(-1.0), 0.0)
    prob_c = tb.ProblemP2(1.0, 0.0, f, g)
    cases.append((mesh, p, prob_c, tb.solve_p2_newton(mesh, p, prob_c)))
    for mesh_i, p_i, prob_i, rep in cases:
        h2 = mesh_i.h**2
        assert abs(rep.constraint_value) <= 10 * h2 * k_scale(mesh_i, p_i, prob_i, rep.field)
        res614 = tb.identity_6_14_residual(mesh_i, p_i, rep.field, prob_i)
        assert abs(res614) <= 10 * h2 * id614_scale(mesh_i, p_i, prob_i, rep.field)


def test_singular_jacobian_on_degenerate_data(params, mesh16):
    f, g = fields(mesh16, 0.0, 0.0)
    with pytest.raises(tb.InfeasibleError):
        tb.solve_p2_newton(mesh16, params, tb.ProblemP2(1.0, 0.0, f, g))


def test_variational_case1_multiplier_positive(params, mesh16):
    f = tb.DiskField.from_function(mesh16, lambda t, s: t + 0.55)
    g = tb.DiskField.constant(mesh16, 0.0)
    prob = tb.ProblemP2(0.0, 0.0, f, g)
    rep = tb.solve_p2_variational(mesh16, params, prob)
    assert rep.multiplier > 0.0
    assert abs(rep.constraint_value) <= 10 * mesh16.h**2 * k_scale(mesh16, params, prob, rep.field)
    assert rep.residual_norm <= 1e-8
    res614 = tb.identity_6_14_residual(mesh16, params, rep.field, prob)
    assert abs(res614) <= 10 * mesh16.h**2 * id614_scale(mesh16, params, prob, rep.field)


def test_variational_case1_boundary_data(params, mesh16):
    f = tb.DiskField.constant(mesh16, 0.0)
    g = tb.DiskField.from_function(mesh16, lambda t, s: t + 0.8)
    prob = tb.ProblemP2(0.0, 0.0, f, g)
    rep = tb.solve_p2_variational(mesh16, params, prob)
    assert rep.multiplier > 0.0
    assert rep.residual_norm <= 1e-8


def test_variational_constant_case_multiplier_orientation(params, mesh16):
    """With (a,b) != 0 the stationarity multiplier is exactly -1 in the strong-form
    orientation (the K-gradient enters the weak form with a plus sign)."""
    f, g = fields(mesh16, -math.exp(-1.0), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tb.ExistenceWindowWarning)
        rep = tb.solve_p2_variational(mesh16, params, tb.ProblemP2(1.0, 0.0, f, g))
    assert np.abs(rep.field.values - 1.0).max() <= 1e-9
    assert rep.multiplier == -1.0


def test_variational_rejects_degenerate_and_unbalanced(params, mesh16):
    zero = tb.DiskField.constant(mesh16, 0.0)
    with pytest.raises(tb.InfeasibleError):
        tb.solve_p2_variational(mesh16, params, tb.ProblemP2(0.0, 0.0, zero, zero))
    one = tb.DiskField.constant(mesh16, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tb.ExistenceWindowWarning)
        with pytest.raises(tb.InfeasibleError):
            tb.solve_p2_variational(mesh16, params, tb.ProblemP2(1.0, 0.0, one, zero))


def test_variational_window_warning(params, mesh16):
    f = tb.DiskField.from_function(mesh16, lambda t, s: t - 0.5)
    zero = tb.DiskField.constant(mesh16, 0.0)
    big_a = (8.0 * math.pi**2 * (params.l - params.r) + 5.0) / params.volume()
    with pytest.warns(tb.ExistenceWindowWarning):
        try:
            tb.solve_p2_variational(mesh16, params, tb.ProblemP2(big_a, 0.0, f, zero),
                                    opts=tb.SolveOptions(max_iter=2, max_descent_iter=2))
        except (tb.NonConvergence, tb.InfeasibleError):
            pass


def test_newton_variational_agreement_manufactured():
    p, mesh, prob, _ = manufactured_p2(16)
    rep_n = tb.solve_p2_newton(mesh, p, prob)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tb.ExistenceWindowWarning)
        rep_v = tb.solve_p2_variational(mesh, p, prob)
    diff = l2_norm(mesh, p, rep_n.field.values - rep_v.field.values)
    assert diff <= 10 * mesh.h**2


def benchmark_p2(n, c=0.1):
    """The benchmark's P2 Newton data: a = b = 0.5, f = g = -0.5 e^-1 (1 + c t)."""
    mesh = tb.build_mesh(n)
    data = tb.DiskField(mesh, -0.5 * math.exp(-1.0) * (1.0 + c * mesh.nodes[:, 0]))
    return mesh, tb.ProblemP2(0.5, 0.5, data, data)


def test_newton_starts_from_the_half_ring_solution(params, splu_sizes, newton_levels):
    mesh, prob = benchmark_p2(32)
    rep = tb.solve_p2_newton(mesh, params, prob)
    fine = len(rep.trace) - 1  # the finest level's trace
    assert 1 <= fine <= 2  # five from a zero start
    factored = list(splu_sizes)
    below_steps = [len(residuals) - 1 for _, residuals, _ in newton_levels[:-1]]  # 2, 4, 8 and 16 rings
    assert not {mesh.n_nodes, tb.build_mesh(16).n_nodes} & set(factored)  # V-cycles solve their steps
    mesh_16, prob_16 = benchmark_p2(16)
    below = tb.solve_p2_newton(mesh_16, params, prob_16)  # the levels of the solve under 32 rings
    steps_16 = len(below.trace) - 1
    assert len(below_steps) == 4 and rep.iterations == sum(below_steps) + fine  # every level's steps
    assert len(factored) == rep.factorizations == below.iterations - steps_16 > fine


def test_nested_newton_matches_the_zero_start(params):
    mesh, prob = benchmark_p2(32)
    nested = tb.solve_p2_newton(mesh, params, prob)
    direct = tb.solve_p2_newton(mesh, params, prob, init=tb.DiskField.constant(mesh, 0.0))
    assert len(direct.trace) - 1 == direct.iterations == 5
    assert l2_norm(mesh, params, nested.field.values - direct.field.values) <= 1e-10


def test_nested_newton_still_fails_on_a_step_budget(params):
    mesh, prob = benchmark_p2(32)
    with pytest.raises(tb.NonConvergence):
        tb.solve_p2_newton(mesh, params, prob, opts=tb.SolveOptions(max_iter=1))


def test_newton_refuses_a_start_whose_residual_overflows(params):
    """``e^800`` overflows float64, so the first residual is not finite and no step is tried."""
    mesh, prob = benchmark_p2(16)
    with pytest.raises(tb.DomainError, match="^initial iterate produces a non-finite residual$"):
        tb.solve_p2_newton(mesh, params, prob, init=tb.DiskField.constant(mesh, 800.0))


def test_nested_newton_tolerance_scales_with_the_zero_residual(params):
    """A prolonged start that meets tol_rel times the residual of zero takes no step.

    Scaling by the start's own, smaller residual would put the tolerance
    below the float64 floor of the residual on fine meshes.
    """
    mesh, prob = benchmark_p2(32)
    tol = 0.5 * tb.p2_residual_norm(mesh, params, prob, tb.DiskField.constant(mesh, 0.0))
    rep = tb.solve_p2_newton(mesh, params, prob, opts=tb.SolveOptions(tol_abs=0.0, tol_rel=0.5))
    assert len(rep.trace) == 1
    assert rep.trace[0][0] <= tol


def test_newton_restart_from_its_own_solution_takes_no_step(params):
    """The tolerance scales with the residual of zero, not with that of the start.

    Scaled by the converged start's own residual, 1e-13 plus 1e-10 of it
    would lie below the float64 floor of the residual, and the line search
    would stall.
    """
    mesh, prob = benchmark_p2(16)
    rep = tb.solve_p2_newton(mesh, params, prob)
    again = tb.solve_p2_newton(mesh, params, prob, init=rep.field, opts=tb.SolveOptions(tol_abs=1e-13))
    assert again.iterations == 0 and len(again.trace) == 1
    assert np.array_equal(again.field.values, rep.field.values)


def test_zero_linear_part_polish_factors_mesh_matrices_only(params, mesh16, splu_sizes):
    """The a = b = 0 polish is Newton on the P2 equation: every factor has a mesh's nodes.

    From ``init`` the finest level is the only one, so the descent
    preconditioner and the polish factor 16-ring matrices.  Without it the
    descent runs on the coarsest level, and the 16-ring level cycles.
    """
    f = tb.DiskField.from_function(mesh16, lambda t, s: t + 0.55)
    prob = tb.ProblemP2(0.0, 0.0, f, tb.DiskField.constant(mesh16, 0.0))
    tb.solve_p2_variational(mesh16, params, prob, init=tb.DiskField.constant(mesh16, 0.0))
    assert len(splu_sizes) >= 2  # the descent preconditioner and a polish step
    assert set(splu_sizes) == {mesh16.n_nodes}
    splu_sizes.clear()
    tb.solve_p2_variational(mesh16, params, prob)
    assert splu_sizes and max(splu_sizes) < mesh16.n_nodes


@pytest.mark.parametrize("case", ["zero_linear_part", "a=b=0.5"])
def test_variational_polish_reaches_a_tight_absolute_tolerance(params, case):
    """With tol_abs = 1e-13, the polish's tolerance stays above the residual's floor.

    A tolerance scaled by the residual of the polish's start, which the
    descent has already brought near the solution, would lie below that
    floor (about 4.5e-13 at n_rings 16), and the line search would stall.
    """
    mesh, prob = benchmark_p2(16)
    if case == "zero_linear_part":
        f = tb.DiskField.from_function(mesh, lambda t, s: t + 0.55)
        prob = tb.ProblemP2(0.0, 0.0, f, tb.DiskField.constant(mesh, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tb.ExistenceWindowWarning)
        rep = tb.solve_p2_variational(mesh, params, prob, opts=tb.SolveOptions(tol_abs=1e-13))
    tol = 1e-13 + 1e-10 * tb.p2_residual_norm(mesh, params, prob, tb.DiskField.constant(mesh, 0.0))
    assert rep.residual_norm <= tol


@pytest.mark.parametrize("f_fn, g_fn", [(lambda t, s: t - 0.5, lambda t, s: 0.0 * t),
                                        (lambda t, s: 0.0 * t, lambda t, s: t - 0.3)],
                         ids=["f=t-0.5", "g=t-0.3"])
def test_variational_zero_linear_part_needs_positive_total_data(params, mesh16, f_fn, g_fn):
    """With a = b = 0, identity 6.14 gives int(f) + bint(g) = int(e^-v |grad v|^2) > 0."""
    prob = tb.ProblemP2(0.0, 0.0, tb.DiskField.from_function(mesh16, f_fn),
                        tb.DiskField.from_function(mesh16, g_fn))
    with pytest.raises(tb.InfeasibleError):
        tb.solve_p2_variational(mesh16, params, prob)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_variational_zero_linear_part_roundoff_total_is_infeasible(params, n):
    """f = s integrates to zero, so a total left positive by roundoff is no positive total."""
    mesh = tb.build_mesh(n)
    prob = tb.ProblemP2(0.0, 0.0, tb.DiskField.from_function(mesh, lambda t, s: s),
                        tb.DiskField.constant(mesh, 0.0))
    with pytest.raises(tb.InfeasibleError):
        tb.solve_p2_variational(mesh, params, prob)


@pytest.mark.parametrize("p1", [False, True], ids=["p2", "p1"])
def test_newton_restart_factors_nothing(params, p1):
    """A start that meets the tolerance takes no step, so it factors no matrix."""
    mesh, prob = benchmark_p2(16)
    if p1:
        prob = tb.ProblemP1(1.5, tb.DiskField.from_function(mesh, lambda t, s: 1.0 + 0.2 * t))
    solve = tb.solve_p1_newton if p1 else tb.solve_p2_newton
    again = solve(mesh, params, prob, init=solve(mesh, params, prob).field)
    assert again.iterations == 0
    assert again.factorizations == 0


def test_nested_newton_orders_only_the_levels_it_factors(params, splu_sizes):
    """Constant data: the coarsest level takes the steps, every finer one starts at the solution.

    A level that takes no step neither factors nor cycles, and hands no
    factor up.
    """
    mesh, prob = benchmark_p2(32, c=0.0)
    tb.solve_p2_newton(mesh, params, prob)
    coarsest = (mesh,)
    while (level := tb.mesh.coarse_mesh(coarsest[0])) is not None:
        coarsest = level
    assert splu_sizes and set(splu_sizes) == {coarsest[0].n_nodes}


def test_an_odd_level_of_16_rings_or_more_is_cycled_not_factored(params, splu_sizes):
    """66 rings halve to 33, and 33 to 16: every level of 16 rings or more cycles, and no factor is that large."""
    mesh, prob = benchmark_p2(66)
    rep = tb.solve_p2_newton(mesh, params, prob)
    assert splu_sizes and len(splu_sizes) == rep.factorizations and rep.two_grid_cycles > 0
    assert max(splu_sizes) < tb.build_mesh(16).n_nodes


@pytest.mark.parametrize("options", [dict(tol_abs=math.nan), dict(tol_rel=math.nan), dict(tol_abs=math.inf),
                                     dict(tol_rel=-1e-10), dict(max_iter=-1), dict(max_descent_iter=-1),
                                     dict(max_monotone_iter=-1)])
def test_solve_options_reject_a_control_that_stops_no_loop(options):
    """A NaN tolerance fails every comparison, so a loop would report success at its start."""
    with pytest.raises(tb.DomainError, match=next(iter(options))):
        tb.SolveOptions(**options)


@pytest.mark.parametrize("cap", ["max_iter", "max_descent_iter", "max_monotone_iter"])
def test_solve_options_reject_a_cap_that_is_not_an_integer(cap):
    """A cap of 2.5 once passed the check.

    Newton then reported "in 2 iterations", and the descent and the
    monotone iteration raised a bare ``TypeError`` from ``range``.
    """
    with pytest.raises(tb.DomainError, match="%s must be an integer" % cap):
        tb.SolveOptions(**{cap: 2.5})


def test_solve_options_accept_zero_tolerances_and_small_caps():
    opts = tb.SolveOptions(tol_abs=0.0, tol_rel=0, max_iter=1, max_descent_iter=0)
    assert (opts.tol_abs, opts.tol_rel, opts.max_iter, opts.max_descent_iter) == (0.0, 0, 1, 0)
