import math

import numpy as np
import pytest

import torusbvp as tb
from oracles import (blowup_profile_l2_integral, corollary_check, moser_field, moser_profile, quad_grad_closed_form,
                     rescale_to_gradient_bound)


def test_family_invariants(params):
    with pytest.raises(tb.DomainError):
        tb.BlowupFamily(params, -1.0, 0.05, (1.0, 0.0))
    with pytest.raises(tb.DomainError):
        tb.BlowupFamily(params, 1.0, 0.8, (1.0, 0.0))  # delta > l_P/2


def test_blowup_field_node_values(params):
    mesh = tb.build_mesh(16)
    delta = 0.5
    fam = tb.BlowupFamily(params, 0.04, delta, (params.l, 0.0))
    field = tb.blowup_field(mesh, fam)
    d = tb.orbit_distance_disk(params, mesh.nodes[:, 0], mesh.nodes[:, 1], fam.orbit)
    center = int(np.argmin(d))
    assert d[center] <= 1e-12
    assert field.values[center] == pytest.approx(2.0 * math.log((0.04 + delta**2) / 0.04), rel=1e-12)
    outside = d >= delta
    assert np.all(field.values[outside] == 0.0)
    near_edge = -2.0 * math.log(0.04 + delta**2) + 2.0 * math.log(0.04 + delta**2)
    assert near_edge == 0.0


def test_closed_forms_against_quadrature_oracle(params):
    for alpha, delta in [(1.0, 1.0), (0.01, 0.1), (1e-8, 0.05)]:
        fam = tb.BlowupFamily(params, alpha, delta, (params.l, 0.0))
        exp_int, grad_int = tb.blowup_closed_forms(fam)
        assert exp_int == pytest.approx((alpha + delta**2) * math.pi / alpha, rel=1e-14)
        assert grad_int == pytest.approx(quad_grad_closed_form(alpha, delta), rel=1e-10)
    # alpha = delta^2 special values
    fam = tb.BlowupFamily(params, 0.25, 0.5, (params.l - params.r, 0.0))
    exp_int, grad_int = tb.blowup_closed_forms(fam)
    assert exp_int == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert grad_int == pytest.approx(16.0 * math.pi * (math.log(2.0) - 0.5), rel=1e-14)
    assert grad_int == pytest.approx(9.708636216139286, rel=1e-12)  # frozen from the quadrature oracle
    # flat-field limit
    fam = tb.BlowupFamily(params, 1e6, 0.4, (params.l - params.r, 0.0))
    exp_int, grad_int = tb.blowup_closed_forms(fam)
    assert exp_int == pytest.approx(math.pi, rel=1e-5)
    assert grad_int <= 1e-5


def test_tube_disk_quadrature_matches_closed_forms(params):
    """2 percent agreement holds down to the resolved-core margin h = sqrt(a)/2d."""
    mesh = tb.build_mesh(64)
    delta = 0.05 * (params.l - params.r)
    for abar in (1.0, 0.25, 6.25e-2, 1.56e-2, (2 * mesh.h) ** 2):
        fam = tb.BlowupFamily(params, abar * delta**2, delta, (params.l - params.r, 0.0))
        ce, cg = tb.blowup_closed_forms(fam)
        me, mg = tb.blowup_tube_disk_quadrature(mesh, fam)
        assert abs(me - ce) / ce <= 0.02
        assert abs(mg - cg) / cg <= 0.02


def test_mt_scan_validates_alphas(params):
    fam = tb.minimal_orbit_family(params, 1.0)
    with pytest.raises(tb.DomainError):
        tb.mt_scan(None, params, fam, [1e-2, 1e-1])
    with pytest.raises(tb.DomainError):
        tb.mt_scan(None, params, fam, [1e-2, -1.0])


def test_mt_scan_closed_form_asymptotics(params):
    fam = tb.minimal_orbit_family(params, 1e-2, eps0=0.15)
    alphas = [10.0 ** (-k) for k in range(2, 19)]
    rows = tb.mt_scan(None, params, fam, alphas)
    limit = 32.0 * math.pi**2 * (params.l - params.r)
    eps0 = fam.delta / (params.l - params.r)
    # both the per-row quotient and the differenced slope sit inside the
    # weight band once concentrated
    for row in rows:
        if row.alpha_blow <= 1e-6:
            assert (1 - eps0) * limit <= row.ratio <= (1 + eps0) * limit
            assert (1 - eps0) * limit <= row.ratio_slope <= (1 + eps0) * limit
    assert all(r.ratio > 0 for r in rows)
    # non-asymptotic point far from the limit
    assert abs(rows[0].ratio - limit) >= 0.5 * limit


def test_mt_scan_chat_bounded_and_divergent(params):
    fam = tb.minimal_orbit_family(params, 1e-2, eps0=0.15)
    alphas = [10.0 ** (-k) for k in range(2, 19)]
    rows = tb.mt_scan(None, params, fam, alphas)
    chats = [r.c_hat for r in rows]
    assert max(chats) / min(chats) < 100.0
    mu_half = tb.mu_best(params, "interior_dirichlet") / 2.0
    chats_half = [math.exp(r.log_integral - mu_half * r.grad_energy - r.mean_term) for r in rows]
    assert max(chats_half) / min(chats_half) > 1e6


def test_mt_scan_mesh_path_matches_closed_forms(params):
    """Mesh quadrature and tube-local closed forms agree at resolved cores."""
    mesh = tb.build_mesh(48)
    fam = tb.interior_orbit_family(params, 1.0)
    l_p = fam.orbit[0]
    vol = params.volume()
    alphas = [0.04, 0.01, 2.5e-3]  # cores resolved: sqrt(alpha)/r >= 2h
    rows = tb.mt_scan(mesh, params, fam, alphas)
    for row in rows:
        assert row.resolved
        f = fam.with_alpha(row.alpha_blow)
        exp_int, grad_int = tb.blowup_closed_forms(f)
        tube = 2 * math.pi * l_p * f.delta**2
        assert row.grad_energy == pytest.approx(2 * math.pi * l_p * grad_int, rel=0.02)
        assert math.exp(row.log_integral) == pytest.approx(vol + tube * (exp_int - math.pi), rel=0.02)
    unresolved = tb.mt_scan(mesh, params, fam, [1e-7])
    assert not unresolved[0].resolved


def test_mt_scan_gap_shrinks_with_alpha(params):
    """Distance of the ratio from its limit correlates positively with alpha."""
    fam = tb.minimal_orbit_family(params, 1e-2, eps0=0.15)
    alphas = [10.0 ** (-k) for k in range(2, 15)]
    rows = tb.mt_scan(None, params, fam, alphas)
    limit = 32.0 * math.pi**2 * (params.l - params.r)
    gaps = np.array([abs(r.ratio - limit) for r in rows])
    ranks_gap = np.argsort(np.argsort(gaps))
    ranks_alpha = np.argsort(np.argsort([r.alpha_blow for r in rows]))
    spearman = np.corrcoef(ranks_gap, ranks_alpha)[0, 1]
    assert spearman > 0.8


def test_norm_boundedness_vs_gradient_growth(params):
    """L2 norm of the family stays bounded while the gradient energy blows up."""
    fam0 = tb.minimal_orbit_family(params, 1.0)
    d2 = fam0.delta**2
    abars = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
    l2s, grads = [], []
    for abar in abars:
        fam = fam0.with_alpha(abar * d2)
        tube = 2 * math.pi * fam.orbit[0] * d2
        l2s.append(tube * blowup_profile_l2_integral(fam))
        grads.append(2 * math.pi * fam.orbit[0] * tb.blowup_closed_forms(fam)[1])
    assert max(l2s) < 2.0 * l2s[0]
    assert grads[-1] > 5.0 * grads[0]


def test_corollary_check_basics(params, mesh16):
    zero = tb.DiskField.constant(mesh16, 0.0)
    assert corollary_check(mesh16, params, zero, 4 * math.pi) == pytest.approx(params.volume(), rel=1e-3)
    nonzero = tb.DiskField.constant(mesh16, 0.5)
    with pytest.raises(tb.DomainError, match="requires a Dirichlet"):
        corollary_check(mesh16, params, nonzero, 4 * math.pi)
    hot = tb.DiskField.from_function(mesh16, lambda t, s: 40.0 * (1 - t * t - s * s))
    with pytest.raises(tb.DomainError, match="gradient energy .* exceeds the bound"):
        corollary_check(mesh16, params, hot, 4 * math.pi)


def test_rescale_saturates_gradient_bound(params, mesh16):
    field = tb.DiskField.from_function(mesh16, lambda t, s: (1 - t * t - s * s) ** 2)
    scaled = rescale_to_gradient_bound(mesh16, params, field)
    assert tb.dirichlet_energy(mesh16, params, scaled) == pytest.approx(
        2 * math.pi * (params.l + params.r), rel=1e-12)
    zero = tb.DiskField.constant(mesh16, 0.0)
    assert rescale_to_gradient_bound(mesh16, params, zero) is zero


def test_moser_profile_unit_gradient(params):
    """The truncated-log profile has 2D gradient energy exactly 1."""
    from scipy.integrate import quad

    delta, rho = 0.125, 0.05
    denom2 = 2 * math.pi * math.log(1.0 / rho)
    val, _ = quad(lambda d: (1.0 / (d * math.sqrt(denom2))) ** 2 * 2 * math.pi * d,
                  delta * rho, delta)
    assert val == pytest.approx(1.0, rel=1e-10)
    assert moser_profile(delta, delta, rho) == 0.0
    cap = math.log(1.0 / rho) / math.sqrt(denom2)
    assert moser_profile(0.0, delta, rho) == pytest.approx(cap, rel=1e-14)


def test_moser_field_zero_trace(params, mesh32):
    field = moser_field(mesh32, params, rho=0.1)
    assert np.all(field.values[mesh32.boundary_nodes] == 0.0)
    assert field.values.max() > 0.0


@pytest.mark.parametrize("rho, alpha_exp", [(0.5, 4 * math.pi), (0.5, 8 * math.pi)], ids=["4pi", "8pi"])
def test_corollary_mesh_route_converges_to_the_scan(params, rho, alpha_exp):
    """The mesh route (sample, rescale, integrate) tends to ``corollary_scan`` at first order.

    At resolved (rho, alpha), l, r = 2, 1 and delta = r/8, the 128-ring value
    lies within its difference from the 64-ring one of the semi-analytic
    value, and both observed orders lie in [0.7, 1.5].  A wrong scale factor
    in either route (say ``c2 = 1``) breaks the bound.
    """
    ref = tb.corollary_scan(params, [rho], alpha_exp)[0][1]
    q = []
    for n in (32, 64, 128):
        mesh = tb.build_mesh(n)
        q.append(corollary_check(mesh, params, rescale_to_gradient_bound(mesh, params, moser_field(mesh, params, rho)),
                                 alpha_exp))
    errors = [abs(x - ref) for x in q]
    assert errors[2] <= abs(q[1] - q[2])
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(0.7 <= order <= 1.5 for order in orders), orders


@pytest.mark.parametrize("alpha_exp", [math.nan, math.inf], ids=["nan", "inf"])
def test_corollary_scan_rejects_a_non_finite_exponent(params, alpha_exp):
    """A nan exponent once gave a nan row and an infinite one an ``OverflowError``."""
    with pytest.raises(tb.DomainError, match="exponent alpha_exp must be finite"):
        tb.corollary_scan(params, [0.1], alpha_exp)


def test_corollary_scan_bounded_then_divergent(params):
    rhos = [0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4]
    vals4 = [v for _, v in tb.corollary_scan(params, rhos, 4 * math.pi)]
    vals8 = [v for _, v in tb.corollary_scan(params, rhos, 8 * math.pi)]
    assert max(vals4) / min(vals4) < 100.0
    assert max(vals4) < 100.0 * params.volume()
    assert max(vals8) > 10.0 * max(vals4)
    assert all(v >= params.volume() for v in vals4)
