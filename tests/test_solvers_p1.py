import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import torusbvp as tb
from oracles import fit_order


def p1_trivial(mesh):
    return tb.ProblemP1(1.0, tb.DiskField.constant(mesh, 1.0))


def manufactured_p1(n, c=0.5, gamma=1.0, l=2.0, r=1.0):
    """Quadratic bubble solution; data built from the analytic operator action."""
    p = tb.make_params(l, r)
    mesh = tb.build_mesh(n)
    t, s = mesh.nodes[:, 0], mesh.nodes[:, 1]
    vstar = c * (1.0 - t * t - s * s)
    lap = (2.0 * c / r**2) * (2.0 + r * t / (l + r * t))
    f = (lap + gamma) * np.exp(-vstar)
    return p, mesh, tb.ProblemP1(gamma, tb.DiskField(mesh, f)), vstar


def l2_norm(mesh, p, vals):
    ops = tb.assemble(mesh, p)
    return math.sqrt(float(ops.volume_mass @ (vals * vals)))


def test_trivial_constant_solution(params, mesh16):
    rep = tb.solve_p1_newton(mesh16, params, p1_trivial(mesh16))
    assert rep.converged
    assert rep.iterations == 0
    assert rep.residual_norm <= 1e-10
    assert np.all(rep.field.values == 0.0)


def test_manufactured_convergence_order():
    errs = []
    for n in (8, 16, 32, 64):
        p, mesh, prob, vstar = manufactured_p1(n)
        rep = tb.solve_p1_newton(mesh, p, prob)
        errs.append(l2_norm(mesh, p, rep.field.values - vstar) / l2_norm(mesh, p, vstar))
    assert 1.7 <= fit_order(errs) <= 2.3


def test_gamma2_maximum_principle_bracket(params, mesh32):
    """gamma=2, f=1: boundary zero, interior strictly negative, above -gamma*torsion.

    Under the positive-Laplacian convention the solution is subharmonic where
    it is below ln(gamma), hence negative inside; the torsion function of the
    weighted disk bounds it from below.
    """
    prob = tb.ProblemP1(2.0, tb.DiskField.constant(mesh32, 1.0))
    rep = tb.solve_p1_newton(mesh32, params, prob)
    assert rep.converged and rep.residual_norm <= 1e-10
    v = rep.field.values
    interior = mesh32.interior_nodes()
    assert np.all(v[mesh32.boundary_nodes] == 0.0)
    assert np.all(v[interior] < 0.0)
    ops = tb.assemble(mesh32, params)
    S_int = ops.stiffness[interior, :][:, interior].tocsc()
    torsion = spla.spsolve(S_int, ops.volume_mass[interior])
    assert np.all(v[interior] >= -2.0 * torsion.max() * (1.0 + 1e-8))


def test_newton_nonconvergence_raises(params, mesh16):
    prob = tb.ProblemP1(2.0, tb.DiskField.constant(mesh16, 1.0))
    opts = tb.SolveOptions(max_iter=1)
    with pytest.raises(tb.NonConvergence):
        tb.solve_p1_newton(mesh16, params, prob, opts=opts)


def test_newton_trace_monotone(params, mesh16):
    prob = tb.ProblemP1(2.0, tb.DiskField.constant(mesh16, 1.0))
    rep = tb.solve_p1_newton(mesh16, params, prob)
    residuals = [r for r, _ in rep.trace]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))


def test_strong_residual_recompute(params, mesh16):
    p, mesh, prob, _ = manufactured_p1(16)
    rep = tb.solve_p1_newton(mesh, p, prob)
    indep = tb.p1_residual_norm(mesh, p, prob, rep.field)
    assert indep <= 2.0 * max(rep.residual_norm, 1e-15)


def test_variational_trivial(params, mesh16):
    rep = tb.solve_p1_variational(mesh16, params, p1_trivial(mesh16))
    assert rep.converged
    assert np.abs(rep.field.values).max() <= 1e-8
    assert abs(rep.functional_value) <= 1e-8
    assert rep.multiplier == pytest.approx(1.0, abs=1e-6)


def test_variational_gamma_zero(params, mesh16):
    f = tb.DiskField.from_function(mesh16, lambda t, s: t + 0.5 * s - 0.3)
    ops = tb.assemble(mesh16, params)
    assert float(ops.volume_mass @ f.values) < 0.0 and f.values.max() > 0.0
    prob = tb.ProblemP1(0.0, f)
    rep = tb.solve_p1_variational(mesh16, params, prob)
    assert rep.converged
    assert rep.multiplier > 0.0
    # returned field satisfies the gamma=0 constraint exactly through the shift
    ev = np.exp(rep.field.values)
    assert abs(float(ops.volume_mass @ (f.values * ev))) <= 1e-8
    assert rep.residual_norm <= 1e-8
    indep = tb.p1_residual_norm(mesh16, params, prob, rep.field, natural=True)
    assert indep <= 2.0 * max(rep.residual_norm, 1e-15)


def test_variational_gamma_negative_mean_bound(params, mesh16):
    """A-posteriori bound: int(v) <= Vol * ln(gamma / sup f) on the constraint set.

    f < 0 everywhere, so the energy is bounded below and no warning is raised.
    """
    f = tb.DiskField.from_function(mesh16, lambda t, s: -2.0 + 0.5 * t)
    prob = tb.ProblemP1(-1.0, f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = tb.solve_p1_variational(mesh16, params, prob)
    assert rep.converged
    int_v = tb.integrate_volume(mesh16, params, rep.field)
    bound = params.volume() * math.log(-1.0 / f.values.max())
    assert int_v <= bound + 1e-6 * abs(bound)


def test_variational_infeasible(params, mesh16):
    neg = tb.DiskField.constant(mesh16, -1.0)
    with pytest.raises(tb.InfeasibleError):
        tb.solve_p1_variational(mesh16, params, tb.ProblemP1(1.0, neg))
    pos = tb.DiskField.constant(mesh16, 1.0)
    with pytest.raises(tb.InfeasibleError):
        tb.solve_p1_variational(mesh16, params, tb.ProblemP1(-1.0, pos))
    with pytest.raises(tb.InfeasibleError):
        tb.solve_p1_variational(mesh16, params, tb.ProblemP1(0.0, pos))
    # sign-changing f whose mean is not negative: int(e^-v |grad v|^2) = -int(f) has no solution
    tilted = tb.DiskField.from_function(mesh16, lambda t, s: t)
    with pytest.raises(tb.InfeasibleError):
        tb.solve_p1_variational(mesh16, params, tb.ProblemP1(0.0, tilted))


def test_variational_gamma_window_warning(params, mesh16):
    gamma_hi = 8.0 * (params.l - params.r) / (params.l * params.r**2) + 1.0
    prob = tb.ProblemP1(gamma_hi, tb.DiskField.constant(mesh16, 1.0))
    with pytest.warns(tb.ExistenceWindowWarning):
        try:
            tb.solve_p1_variational(mesh16, params, prob, opts=tb.SolveOptions(max_iter=3, max_descent_iter=3))
        except tb.NonConvergence:
            pass


@pytest.mark.parametrize("gamma, fn", [(1.0, lambda t, s: 1.0 + 0.2 * t), (0.0, lambda t, s: t - 0.3)],
                         ids=["gamma1", "gamma0"])
def test_variational_is_the_p2_core_case(params, mesh16, gamma, fn):
    """P1 variational is P2 variational with a = gamma, f -> -f, b = g = 0.

    The descent minimizes half the P1 energy, so its unit step is the
    Newton-like step and it takes about 20 iterations at gamma = 1.  The
    full P1 energy with the same preconditioner doubles every step, and the
    descent oscillates for over a thousand iterations.
    """
    f = tb.DiskField.from_function(mesh16, fn)
    prob1 = tb.ProblemP1(gamma, f)
    prob2 = tb.ProblemP2(gamma, 0.0, tb.DiskField(mesh16, -f.values), tb.DiskField.constant(mesh16, 0.0))
    rep1 = tb.solve_p1_variational(mesh16, params, prob1)
    rep2 = tb.solve_p2_variational(mesh16, params, prob2)
    assert rep1.iterations <= 100
    assert l2_norm(mesh16, params, rep1.field.values - rep2.field.values) <= 1e-10
    i1 = tb.functional_I_p1(mesh16, params, rep1.field, prob1)
    assert i1 == pytest.approx(2.0 * tb.functional_I_p2(mesh16, params, rep2.field, prob2), rel=1e-10)
    if gamma != 0.0:
        assert rep1.multiplier * rep2.multiplier < 0.0
        assert rep1.multiplier == 1.0
    else:
        # both report kappa, the shift of the returned field: exp of its mean
        assert rep1.multiplier == pytest.approx(rep2.multiplier, rel=1e-10)
        mean = tb.mean_value(mesh16, params, rep1.field)
        assert rep1.multiplier == pytest.approx(math.exp(mean), rel=1e-12)


def test_variational_polish_that_diverges_is_not_converged(params, mesh16):
    """A polish started where the descent stopped must not scale its tolerance by that start.

    Here the polish leaves a residual of order 1e8; measured against the
    residual of its start that once passed as convergence.
    """
    prob = tb.ProblemP1(-1.0, tb.DiskField.from_function(mesh16, lambda t, s: t - 0.5))
    with pytest.raises(tb.NonConvergence):
        tb.solve_p1_variational(mesh16, params, prob)


@pytest.mark.parametrize("p1", [True, False], ids=["p1", "p2"])
def test_variational_unbounded_energy_warns(params, mesh16, p1):
    """A negative linear part with exponential terms of both signs leaves the energy unbounded below.

    Along ``c + psi`` on {K = 0} it falls like ``(a Vol + b Vol_b) c``; the
    descent runs off and the polish fails, and a warning says why.
    """
    f = tb.DiskField.from_function(mesh16, lambda t, s: t - 0.5)
    if p1:
        solve, prob = tb.solve_p1_variational, tb.ProblemP1(-1.0, f)
    else:
        solve, prob = tb.solve_p2_variational, tb.ProblemP2(-1.0, 0.0, f, tb.DiskField.constant(mesh16, 0.0))
    with pytest.warns(tb.ExistenceWindowWarning, match="unbounded below"):
        with pytest.raises(tb.NonConvergence):
            solve(mesh16, params, prob)


def test_nested_newton_takes_one_fine_step(params, splu_sizes):
    """On the benchmark's P1 data the extrapolated, relaxed start needs one fine step.

    Linear prolongation of the half-ring solution alone needs two.  The
    fine step factors nothing (two-grid cycles solve it); every coarse step
    factors once.
    """
    mesh = tb.build_mesh(64)
    prob = tb.ProblemP1(1.5, tb.DiskField(mesh, 1.0 + 0.2 * mesh.nodes[:, 0]))
    rep = tb.solve_p1_newton(mesh, params, prob)
    assert splu_sizes.count(mesh.interior_nodes().size) == 0
    assert len(rep.trace) == 2
    assert rep.iterations == len(splu_sizes) + 1 == rep.factorizations + 1


def test_newton_init_with_a_nonzero_trace_solves_with_that_trace_zeroed(params, mesh16):
    """The Dirichlet unknowns are the interior nodes: an ``init``'s boundary values never enter."""
    t = mesh16.nodes[:, 0]
    prob = tb.ProblemP1(1.5, tb.DiskField(mesh16, 1.0 + 0.2 * t))
    init = tb.DiskField(mesh16, 0.1 + 0.1 * t)
    assert np.any(init.values[mesh16.boundary_nodes] != 0.0)
    rep = tb.solve_p1_newton(mesh16, params, prob, init=init)
    assert np.all(rep.field.values[mesh16.boundary_nodes] == 0.0)
    zeroed = init.values.copy()
    zeroed[mesh16.boundary_nodes] = 0.0
    zeroed = tb.solve_p1_newton(mesh16, params, prob, init=tb.DiskField(mesh16, zeroed))
    assert np.array_equal(rep.field.values, zeroed.field.values)
    assert rep.iterations == zeroed.iterations >= 1
