"""Independent oracles used by the tests: Monte Carlo, high-order quadrature, mesh routes.

Most of this is deliberately written against the raw 3D definitions (or
1D/2D reference quadrature), not against the package's mesh machinery, so the
two routes stay independent.  The corollary's mesh route is the exception:
it samples the truncated-log family on the mesh and integrates it there, the
independent route to the semi-analytic ``corollary_scan``.
"""

import math

import numpy as np

import torusbvp as tb
from torusbvp.inequalities import default_moser_orbit
from torusbvp.mesh import weighted_sum

TWO_PI = 2.0 * math.pi


def mc_volume(l, r, n, rng):
    """Rejection-sampling volume of (hypot(x,y)-l)^2 + z^2 <= r^2 with 1-sigma error."""
    box = np.array([l + r, l + r, r])
    pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * box
    inside = (np.hypot(pts[:, 0], pts[:, 1]) - l) ** 2 + pts[:, 2] ** 2 <= r * r
    box_vol = 8.0 * box.prod()
    frac = inside.mean()
    return box_vol * frac, box_vol * math.sqrt(max(frac * (1.0 - frac), 1e-30) / n)


def mc_boundary_area(l, r, n, rng):
    """Surface area via the parametric embedding and its cross-product element."""
    om = rng.uniform(0.0, 2.0 * math.pi, size=n)
    u = rng.uniform(0.0, 2.0 * math.pi, size=n)
    s_om = np.stack([-np.sin(om) * (l + r * np.cos(u)),
                     np.cos(om) * (l + r * np.cos(u)),
                     np.zeros(n)], axis=1)
    s_u = np.stack([-r * np.sin(u) * np.cos(om),
                    -r * np.sin(u) * np.sin(om),
                    r * np.cos(u) * np.ones_like(om)], axis=1)
    elem = np.linalg.norm(np.cross(s_om, s_u), axis=1)
    dom = (2.0 * math.pi) ** 2
    return dom * elem.mean(), dom * elem.std(ddof=1) / math.sqrt(n)


def _torus_samples(l, r, n, rng):
    box = np.array([l + r, l + r, r])
    pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * box
    rho = np.hypot(pts[:, 0], pts[:, 1])
    inside = (rho - l) ** 2 + pts[:, 2] ** 2 <= r * r
    t = (rho[inside] - l) / r
    s = pts[inside, 2] / r
    return t, s, inside, 8.0 * box.prod()


def mc_volume_integral(l, r, fn, n, rng):
    """Monte Carlo of a rotation-invariant integrand fn(t, s) over the solid torus."""
    t, s, inside, box_vol = _torus_samples(l, r, n, rng)
    vals = np.zeros(n)
    vals[inside] = fn(t, s)
    return box_vol * vals.mean(), box_vol * vals.std(ddof=1) / math.sqrt(n)


def mc_gradient_integral(l, r, grad_fn, n, rng):
    """Monte Carlo of |grad v|^2 for a reduced field with disk gradient grad_fn(t, s).

    The 3D squared gradient of a rotation-invariant field is
    (phi_t^2 + phi_s^2)/r^2.
    """
    def sq(t, s):
        gt, gs = grad_fn(t, s)
        return (gt * gt + gs * gs) / (r * r)

    return mc_volume_integral(l, r, sq, n, rng)


def gauss_disk_weighted(fn, l, r, n_rad=96, n_ang=192):
    """High-order tensor quadrature of integral_D fn(t,s) (l + r t) dt ds."""
    x, w = np.polynomial.legendre.leggauss(n_rad)
    rho = 0.5 * (x + 1.0)
    w_rho = 0.5 * w
    theta = (np.arange(n_ang) + 0.5) * (2.0 * math.pi / n_ang)
    w_theta = 2.0 * math.pi / n_ang
    tt = rho[:, None] * np.cos(theta)[None, :]
    ss = rho[:, None] * np.sin(theta)[None, :]
    vals = fn(tt, ss) * (l + r * tt) * rho[:, None]
    return float(np.sum(vals * w_rho[:, None]) * w_theta)


def gauss_boundary_weighted(fn, l, r, n_ang=512):
    """Spectral quadrature of the weighted arc-length integral over the unit circle."""
    theta = (np.arange(n_ang) + 0.5) * (2.0 * math.pi / n_ang)
    tt, ss = np.cos(theta), np.sin(theta)
    return float(np.sum(fn(tt, ss) * (l + r * tt)) * (2.0 * math.pi / n_ang))


def integrate_boundary(mesh, p, field):
    """Boundary-torus integral of ``field`` on the mesh: the lumped boundary mass summed against its trace.

    Like ``integrate_volume`` it sums the values it is given; an integral of
    ``e^v`` passes ``DiskField(mesh, exp_capped(v))``.
    """
    return weighted_sum(tb.assemble(mesh, p).boundary_mass, field.values)


def inscribed_polygon_area(m_sides):
    return 0.5 * m_sides * math.sin(2.0 * math.pi / m_sides)


def quad_grad_closed_form(alpha, delta):
    """Adaptive quadrature of 16*pi*int_0^{delta^2} tau/(alpha+tau)^2 dtau."""
    from scipy.integrate import quad

    val, _ = quad(lambda tau: tau / (alpha + tau) ** 2, 0.0, delta * delta)
    return 16.0 * math.pi * val


class SmoothFieldBasis:
    """Reproducible smooth fields with analytic disk gradients."""

    def __init__(self, seed):
        self.coef = np.random.default_rng(seed).normal(0.0, 0.3, size=7)

    def __call__(self, t, s):
        c = self.coef
        return (c[0] + c[1] * t + c[2] * s + c[3] * t * s
                + c[4] * (t * t - s * s) + c[5] * np.sin(t + s) + c[6] * np.cos(t - s))

    def grad(self, t, s):
        c = self.coef
        gt = c[1] + c[3] * s + 2.0 * c[4] * t + c[5] * np.cos(t + s) - c[6] * np.sin(t - s)
        gs = c[2] + c[3] * t - 2.0 * c[4] * s + c[5] * np.cos(t + s) + c[6] * np.sin(t - s)
        return gt, gs


def fit_order(errors):
    """Median dyadic convergence order from a list of errors at h, h/2, h/4, ..."""
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:]) if b > 0]
    return float(np.median(orders))


def blowup_profile_l2_integral(fam, n_quad=200):
    """Squared-profile integral of the blow-up family over the unit tube disk (Gauss-Legendre in radius)."""
    a, d2 = fam.alpha_blow, fam.delta**2
    x, w = np.polynomial.legendre.leggauss(n_quad)
    rho = 0.5 * (x + 1.0)
    phi = 2.0 * np.log((a + d2) / (a + d2 * rho**2))
    return float(TWO_PI * 0.5 * np.sum(w * phi**2 * rho))


# ---------------------------------------------------------------------------
# The corollary's mesh route: sample, rescale to the gradient bound, integrate
# ---------------------------------------------------------------------------

def moser_profile(d, delta, rho):
    """Radial truncated-log profile with unit 2D gradient energy.

    ``w = ln(delta/d)/sqrt(2 pi ln(1/rho))`` capped at its d = delta*rho value
    and cut to zero at d >= delta.
    """
    if not (0.0 < rho < 1.0):
        raise tb.DomainError("truncation rho must lie in (0, 1), got %r" % (rho,))
    d = np.asarray(d, dtype=float)
    denom = math.sqrt(TWO_PI * math.log(1.0 / rho))
    cap = math.log(1.0 / rho) / denom
    with np.errstate(divide="ignore"):
        w = np.log(delta / np.maximum(d, 1e-300)) / denom
    out = np.where(d >= delta, 0.0, np.minimum(w, cap))
    return float(out) if out.ndim == 0 else out


def moser_field(mesh, p, rho):
    """Truncated-log family of radius ``r/8`` about ``default_moser_orbit``, sampled at mesh nodes (zero trace)."""
    delta = p.r / 8.0
    d = tb.orbit_distance_disk(p, mesh.nodes[:, 0], mesh.nodes[:, 1], default_moser_orbit(p, delta))
    return tb.DiskField(mesh, moser_profile(d, delta, rho))


def rescale_to_gradient_bound(mesh, p, field):
    """Scale the field so its gradient energy saturates ``2 pi (l + r)``."""
    energy = tb.dirichlet_energy(mesh, p, field)
    if energy == 0.0:
        return field
    return tb.DiskField(mesh, field.values * math.sqrt(TWO_PI * (p.l + p.r) / energy))


def corollary_check(mesh, p, field, alpha_exp):
    """Volume integral of ``e^{alpha v^2}`` under the gradient-energy bound.

    Requires a Dirichlet field (zero trace) with
    ``|grad v|^2 <= 2 pi (l + r)``; raises ``DomainError`` otherwise.
    """
    bvals = field.values[mesh.boundary_nodes]
    if float(np.max(np.abs(bvals))) > 1e-10:
        raise tb.DomainError("corollary check requires a Dirichlet (zero-trace) field")
    energy = tb.dirichlet_energy(mesh, p, field)
    bound = TWO_PI * (p.l + p.r)
    if energy > bound * (1.0 + 1e-8):
        raise tb.DomainError("gradient energy %g exceeds the bound %g" % (energy, bound))
    v = field.values
    return tb.integrate_volume(mesh, p, tb.DiskField(mesh, tb.exp_capped(alpha_exp * v * v)))
