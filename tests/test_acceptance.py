"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import json
import math
import warnings

import numpy as np
import pytest

import torusbvp as tb
from torusbvp.cli import main as cli_main
from oracles import (
    SmoothFieldBasis,
    fit_order,
    gauss_boundary_weighted,
    gauss_disk_weighted,
    integrate_boundary,
    mc_boundary_area,
    mc_gradient_integral,
    mc_volume,
    mc_volume_integral,
    quad_grad_closed_form,
)


def announce(num, ok, detail):
    print("ACCEPTANCE %2d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def l2(mesh, p, vals):
    ops = tb.assemble(mesh, p)
    return math.sqrt(float(ops.volume_mass @ (vals * vals)))


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_geometry_exactness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for l, r in [(2.0, 1.0), (3.0, 1.0), (3.0, 2.0)]:
        p = tb.TorusParams(l, r)
        est, sigma = mc_volume(l, r, 1_000_000, rng)
        worst = max(worst, abs(est - p.volume()) / (3 * sigma))
        est, sigma = mc_boundary_area(l, r, 1_000_000, rng)
        worst = max(worst, abs(est - p.boundary_area()) / (3 * sigma))
    announce(1, worst <= 1.0, "max |error|/3sigma = %.3f over 3 geometries" % worst)


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_reduction_identities():
    p = tb.TorusParams(2.0, 1.0)
    rng = np.random.default_rng(7)
    meshes = {n: tb.build_mesh(n) for n in (8, 16, 32, 64)}
    n_mc = 250_000
    mc_fail = 0
    orders_vol, orders_energy, orders_bnd = [], [], []
    for k in range(20):
        basis = SmoothFieldBasis(100 + k)
        exact_vol = 2 * math.pi * p.r**2 * gauss_disk_weighted(
            lambda t, s: np.exp(basis(t, s)), p.l, p.r)
        exact_energy = 2 * math.pi * gauss_disk_weighted(
            lambda t, s: (lambda g: g[0] ** 2 + g[1] ** 2)(basis.grad(t, s)), p.l, p.r)
        exact_bnd = 2 * math.pi * p.r * gauss_boundary_weighted(
            lambda t, s: np.exp(basis(t, s)), p.l, p.r)

        est, sigma = mc_volume_integral(p.l, p.r, lambda t, s: np.exp(basis(t, s)), n_mc, rng)
        exp_basis = tb.DiskField.from_function(meshes[32], lambda t, s: tb.exp_capped(basis(t, s)))
        quad32 = tb.integrate_volume(meshes[32], p, exp_basis)
        if abs(quad32 - est) > 3 * sigma:
            mc_fail += 1
        est_g, sigma_g = mc_gradient_integral(p.l, p.r, basis.grad, n_mc, rng)
        energy32 = tb.dirichlet_energy(meshes[32], p, tb.DiskField.from_function(meshes[32], basis))
        if abs(energy32 - est_g) > 3 * sigma_g:
            mc_fail += 1

        ev, ee, eb = [], [], []
        for n in (8, 16, 32, 64):
            field = tb.DiskField.from_function(meshes[n], basis)
            exp_field = tb.DiskField(meshes[n], tb.exp_capped(field.values))
            ev.append(abs(tb.integrate_volume(meshes[n], p, exp_field) - exact_vol))
            ee.append(abs(tb.dirichlet_energy(meshes[n], p, field) - exact_energy))
            eb.append(abs(integrate_boundary(meshes[n], p, exp_field) - exact_bnd))
        orders_vol.append(fit_order(ev))
        orders_energy.append(fit_order(ee))
        orders_bnd.append(fit_order(eb))

    med = (float(np.median(orders_vol)), float(np.median(orders_energy)), float(np.median(orders_bnd)))
    ok = mc_fail == 0 and all(1.7 <= o <= 2.3 for o in med)
    announce(2, ok, "MC 3sigma failures %d/40; median orders vol %.2f energy %.2f boundary %.2f"
             % (mc_fail, *med))


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_blowup_closed_forms():
    p = tb.TorusParams(2.0, 1.0)
    mesh = tb.build_mesh(64)
    delta = 0.05 * (p.l - p.r)
    worst = 0.0
    n_pts = 0
    abars = [1.0, 0.25, 6.25e-2, 1.56e-2, 3.9e-3, (2 * mesh.h) ** 2]
    for abar in abars:
        fam = tb.BlowupFamily(p, abar * delta**2, delta, (p.l - p.r, 0.0))
        if mesh.h > math.sqrt(fam.alpha_blow) / (2 * delta):
            continue  # unresolved core: outside the criterion
        ce, cg = tb.blowup_closed_forms(fam)
        assert cg == pytest.approx(quad_grad_closed_form(fam.alpha_blow, delta), rel=1e-10)
        me, mg = tb.blowup_tube_disk_quadrature(mesh, fam)
        worst = max(worst, abs(me - ce) / ce, abs(mg - cg) / cg)
        n_pts += 1
    announce(3, n_pts >= 5 and worst <= 0.02,
             "max relative error %.4f over %d resolved concentrations" % (worst, n_pts))


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_best_constant_asymptotics():
    p = tb.TorusParams(2.0, 1.0)
    fam = tb.minimal_orbit_family(p, 1e-2, eps0=0.15)
    alphas = [10.0 ** (-k) for k in range(2, 19)]
    rows = tb.mt_scan(None, p, fam, alphas)
    limit = 32.0 * math.pi**2 * (p.l - p.r)
    eps0 = fam.delta / (p.l - p.r)
    tail = [r for r in rows if r.alpha_blow <= 1e-6]
    in_band = [(1 - eps0) * limit <= r.ratio <= (1 + eps0) * limit
               and (1 - eps0) * limit <= r.ratio_slope <= (1 + eps0) * limit
               for r in tail]
    chats = [r.c_hat for r in rows]
    spread = max(chats) / min(chats)
    mu_half = tb.mu_best(p, "interior_dirichlet") / 2.0
    chats_half = [math.exp(r.log_integral - mu_half * r.grad_energy - r.mean_term) for r in rows]
    growth = max(chats_half) / min(chats_half)
    ok = all(in_band) and len(in_band) >= 10 and spread < 100.0 and growth > 1e6
    announce(4, ok, "ratio and slope in band for %d/%d points (alpha<=1e-6); C_hat spread %.2f "
             "at mu, growth %.2e at mu/2" % (sum(in_band), len(in_band), spread, growth))


# -- 5 ----------------------------------------------------------------------

def _manufactured_p1(n, c=0.5, gamma=1.0, l=2.0, r=1.0):
    p = tb.TorusParams(l, r)
    mesh = tb.build_mesh(n)
    t, s = mesh.nodes[:, 0], mesh.nodes[:, 1]
    vstar = c * (1.0 - t * t - s * s)
    lap = (2.0 * c / r**2) * (2.0 + r * t / (l + r * t))
    f = (lap + gamma) * np.exp(-vstar)
    return p, mesh, tb.ProblemP1(gamma, tb.DiskField(mesh, f)), vstar


def test_criterion_5_p1_solver():
    p = tb.TorusParams(2.0, 1.0)
    mesh = tb.build_mesh(16)
    rep = tb.solve_p1_newton(mesh, p, tb.ProblemP1(1.0, tb.DiskField.constant(mesh, 1.0)))
    trivial_ok = rep.residual_norm <= 1e-10 and np.all(rep.field.values == 0.0)

    errs = []
    for n in (8, 16, 32, 64):
        pn, mn, prob, vstar = _manufactured_p1(n)
        rep_n = tb.solve_p1_newton(mn, pn, prob)
        errs.append(l2(mn, pn, rep_n.field.values - vstar) / l2(mn, pn, vstar))
    order = fit_order(errs)

    f = tb.DiskField.from_function(mesh, lambda t, s: -2.0 + 0.5 * t)
    prob_neg = tb.ProblemP1(-1.0, f)
    rep_v = tb.solve_p1_variational(mesh, p, prob_neg)
    int_v = tb.integrate_volume(mesh, p, rep_v.field)
    bound = p.volume() * math.log(-1.0 / f.values.max())
    bound_ok = int_v <= bound + 1e-6 * abs(bound)

    ok = trivial_ok and 1.7 <= order <= 2.3 and bound_ok
    announce(5, ok, "trivial residual %.1e; MMS order %.2f; mean bound %.4f <= %.4f"
             % (rep.residual_norm, order, int_v, bound))


# -- 6 ----------------------------------------------------------------------

def _manufactured_p2(n, c=0.3, a=0.5, b=-0.2, l=2.0, r=1.0):
    p = tb.TorusParams(l, r)
    mesh = tb.build_mesh(n)
    t, s = mesh.nodes[:, 0], mesh.nodes[:, 1]
    vstar = c * (2.0 - t * t - s * s)
    lap = (2.0 * c / r**2) * (2.0 + r * t / (l + r * t))
    f = -(lap + a) * np.exp(-vstar)
    g = -(-2.0 * c / r + b) * np.exp(-vstar)
    return p, mesh, tb.ProblemP2(a, b, tb.DiskField(mesh, f), tb.DiskField(mesh, g)), vstar


def _k_scale(mesh, p, prob, field):
    ops = tb.assemble(mesh, p)
    ev = np.exp(field.values)
    return (abs(prob.a) * p.volume() + abs(prob.b) * p.boundary_area()
            + float(ops.volume_mass @ np.abs(prob.f.values * ev))
            + float(ops.boundary_mass @ np.abs(prob.g.values * ev)) + 1.0)


def _id614_scale(mesh, p, prob, field):
    ops = tb.assemble(mesh, p)
    emv = np.exp(-field.values)
    return (abs(prob.a) * float(ops.volume_mass @ emv) + abs(prob.b) * float(ops.boundary_mass @ emv)
            + abs(float(ops.volume_mass @ prob.f.values)) + abs(float(ops.boundary_mass @ prob.g.values))
            + tb.grad_energy_weighted(mesh, p, field) + 1.0)


def test_criterion_6_p2_solver():
    p = tb.TorusParams(2.0, 1.0)
    mesh = tb.build_mesh(16)
    zero = tb.DiskField.constant(mesh, 0.0)

    prob_a = tb.ProblemP2(1.0, 0.0, tb.DiskField.constant(mesh, -math.exp(-1.0)), zero)
    rep_a = tb.solve_p2_newton(mesh, p, prob_a)
    prob_b = tb.ProblemP2(0.0, 1.0, zero, tb.DiskField.constant(mesh, -math.exp(-2.0)))
    rep_b = tb.solve_p2_newton(mesh, p, prob_b)
    const_err = max(np.abs(rep_a.field.values - 1.0).max(), np.abs(rep_b.field.values - 2.0).max())

    converged = [(mesh, p, prob_a, rep_a), (mesh, p, prob_b, rep_b)]
    errs = []
    for n in (8, 16, 32, 64):
        pn, mn, prob, vstar = _manufactured_p2(n)
        rep = tb.solve_p2_newton(mn, pn, prob)
        errs.append(l2(mn, pn, rep.field.values - vstar))
        converged.append((mn, pn, prob, rep))
    order = fit_order(errs)

    kappas = []
    for fn in (lambda t, s: t + 0.55,
               lambda t, s: t * t + s * s - 0.2,
               None):
        if fn is None:
            prob1 = tb.ProblemP2(0.0, 0.0, zero,
                                 tb.DiskField.from_function(mesh, lambda t, s: t + 0.8))
        else:
            prob1 = tb.ProblemP2(0.0, 0.0, tb.DiskField.from_function(mesh, fn), zero)
        rep1 = tb.solve_p2_variational(mesh, p, prob1)
        kappas.append(rep1.multiplier)
        converged.append((mesh, p, prob1, rep1))

    worst_k, worst_id = 0.0, 0.0
    for mesh_i, p_i, prob_i, rep_i in converged:
        h2 = mesh_i.h**2
        worst_k = max(worst_k, abs(rep_i.constraint_value) / (10 * h2 * _k_scale(mesh_i, p_i, prob_i, rep_i.field)))
        res614 = tb.identity_6_14_residual(mesh_i, p_i, rep_i.field, prob_i)
        worst_id = max(worst_id, abs(res614) / (10 * h2 * _id614_scale(mesh_i, p_i, prob_i, rep_i.field)))

    ok = (const_err <= 1e-10 and 1.7 <= order <= 2.3 and worst_k <= 1.0 and worst_id <= 1.0
          and all(k > 0 for k in kappas))
    announce(6, ok, "const err %.1e; MMS order %.2f; K/6.14 budgets %.3f/%.3f; kappas %s"
             % (const_err, order, worst_k, worst_id, ["%.3f" % k for k in kappas]))


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_monotone_iteration():
    p = tb.TorusParams(2.0, 1.0)
    mesh = tb.build_mesh(16)
    one = tb.DiskField.constant(mesh, 1.0)
    prob = tb.ProblemP2(-1.0, -1.0, one, one)
    _, sup = tb.find_constant_bracket(mesh, p, prob)
    sub = tb.DiskField.constant(mesh, -10.0)
    # nodewise monotonicity and bracketing are asserted inside the iteration
    # (an OrderingViolation would fail this test)
    rep = tb.solve_p2_monotone(mesh, p, prob, sub, sup,
                               opts=tb.SolveOptions(tol_abs=1e-12, tol_rel=1e-12))
    increments = [inc for inc, _ in rep.trace]
    ok = rep.residual_norm <= 1e-8 and all(i >= 0 for i in increments)
    announce(7, ok, "fixed-point residual %.2e after %d monotone steps" %
             (rep.residual_norm, rep.iterations))


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_corollary_sharpness():
    p = tb.TorusParams(2.0, 1.0)
    rhos = [0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4]
    vals4 = [v for _, v in tb.corollary_scan(p, rhos, 4.0 * math.pi)]
    vals8 = [v for _, v in tb.corollary_scan(p, rhos, 8.0 * math.pi)]
    spread = max(vals4) / min(vals4)
    ratio = max(vals8) / max(vals4)
    ok = spread < 100.0 and max(vals4) < 100.0 * p.volume() and ratio > 10.0
    announce(8, ok, "4pi spread %.2f (max %.1f vs 100*Vol %.1f); 8pi/4pi max ratio %.2e"
             % (spread, max(vals4), 100 * p.volume(), ratio))


# -- 9 ----------------------------------------------------------------------

def _shared_p1(n, c, gamma, l=2.0, r=1.0):
    """Manufactured solution with zero trace and zero normal derivative:
    admissible for both the Dirichlet and the natural-boundary path."""
    p = tb.TorusParams(l, r)
    mesh = tb.build_mesh(n)
    t, s = mesh.nodes[:, 0], mesh.nodes[:, 1]
    rho2 = t * t + s * s
    vstar = c * (1.0 - rho2) ** 2
    phi_t = -4.0 * c * t * (1.0 - rho2)
    lap = -(8.0 * c * (2.0 * rho2 - 1.0) + (r / (l + r * t)) * phi_t) / r**2
    f = (lap + gamma) * np.exp(-vstar)
    return p, mesh, tb.ProblemP1(gamma, tb.DiskField(mesh, f))


def test_criterion_9_cross_method_agreement():
    details = []
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tb.ExistenceWindowWarning)
        # P1: trivial constant + two flat-normal manufactured problems
        p = tb.TorusParams(2.0, 1.0)
        mesh = tb.build_mesh(16)
        budget = 10 * mesh.h**2
        prob = tb.ProblemP1(1.0, tb.DiskField.constant(mesh, 1.0))
        d = l2(mesh, p, tb.solve_p1_newton(mesh, p, prob).field.values
               - tb.solve_p1_variational(mesh, p, prob).field.values)
        details.append(d)
        for c, gamma in [(0.3, 1.0), (0.2, 0.5)]:
            pp, mm, prob = _shared_p1(16, c, gamma)
            d = l2(mm, pp, tb.solve_p1_newton(mm, pp, prob).field.values
                   - tb.solve_p1_variational(mm, pp, prob).field.values)
            details.append(d)
        # P2: both exact constants + manufactured Robin data
        zero = tb.DiskField.constant(mesh, 0.0)
        for prob in (tb.ProblemP2(1.0, 0.0, tb.DiskField.constant(mesh, -math.exp(-1.0)), zero),
                     tb.ProblemP2(0.0, 1.0, zero, tb.DiskField.constant(mesh, -math.exp(-2.0)))):
            d = l2(mesh, p, tb.solve_p2_newton(mesh, p, prob).field.values
                   - tb.solve_p2_variational(mesh, p, prob).field.values)
            details.append(d)
        pp, mm, prob, _ = _manufactured_p2(16)
        d = l2(mm, pp, tb.solve_p2_newton(mm, pp, prob).field.values
               - tb.solve_p2_variational(mm, pp, prob).field.values)
        details.append(d)
    worst = max(details)
    announce(9, worst <= budget, "max L2 disagreement %.2e over 6 problems (budget %.2e)"
             % (worst, budget))


# -- 10 ---------------------------------------------------------------------

_CFG = """
[geometry]
l = 2.0
r = 1.0
[mesh]
n_rings = 8
[problem]
gamma = 1.0
f = 1
a = -1.0
b = -1.0
g = 1
[solver]
method = %s
[scan]
gammas = 0.5, 1.0
rhos = 0.3, 0.1
alphas = 1e-2, 1e-4, 1e-6
"""


def test_criterion_10_cli_determinism(tmp_path):
    runs = [
        ("solve-p1", "newton", "solution.csv"),
        ("solve-p2", "monotone", "solution.csv"),
        ("mt-scan", "newton", "mt_scan.csv"),
        ("corollary", "newton", "corollary.csv"),
        ("scan-gamma", "newton", "gamma_scan.csv"),
        ("verify", "newton", "verify.csv"),
    ]
    all_ok = True
    for cmd, method, csv_name in runs:
        cfg = tmp_path / ("%s.ini" % cmd)
        cfg.write_text(_CFG % method)
        out1 = tmp_path / (cmd + "_1")
        out2 = tmp_path / (cmd + "_2")
        rc1 = cli_main([cmd, "--config", str(cfg), "--out", str(out1), "--seed", "3"])
        rc2 = cli_main([cmd, "--config", str(cfg), "--out", str(out2), "--seed", "3"])
        body1 = (out1 / csv_name).read_text().splitlines()[1:]
        body2 = (out2 / csv_name).read_text().splitlines()[1:]
        all_ok = all_ok and rc1 == rc2 == 0 and body1 == body2
    announce(10, all_ok, "byte-identical CSV bodies for %d subcommands" % len(runs))
