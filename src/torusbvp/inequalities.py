"""Blow-up families, exponential-inequality scans and sharpness probes.

The concentration family ``v_a = -2 ln(a + d^2) + 2 ln(a + delta^2)`` (d the
distance to a fixed orbit, support d < delta) witnesses the best constant of
the volume inequality: its gradient energy grows like ``32 pi^2 l_P ln(1/a)``
while ``ln of the exponential integral`` grows like ``ln(1/a)``.  Closed
forms over the rescaled tube disk are exact; mesh quadrature reproduces them
once the core is resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .functionals import EXP_ARG_CAP, exp_capped, mean_value
from .geometry import TorusParams, orbit_distance_disk
from .mesh import DiskField, DiskMesh, _assemble_core, dirichlet_energy, integrate_volume, weighted_sum

TWO_PI = 2.0 * math.pi


@lru_cache(maxsize=None)
def _gauss_legendre(n_quad: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order and read-only."""
    x, w = np.polynomial.legendre.leggauss(n_quad)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def mu_best(p: TorusParams, mode: str) -> float:
    """Best (or reference) inequality constant for the given mode."""
    base = p.l - p.r
    if mode == "interior_dirichlet":
        return 1.0 / (32.0 * math.pi**2 * base)
    if mode == "interior_full":
        return 1.0 / (16.0 * math.pi**2 * base)
    if mode == "boundary_trace":
        # only the threshold is known; used as the reference slider value
        return 1.0 / (8.0 * math.pi**2 * base)
    raise DomainError("unknown inequality mode %r" % (mode,))


@dataclass(frozen=True)
class BlowupFamily:
    """Concentration family around a fixed orbit.

    ``alpha_blow`` is the concentration parameter (length^2 units), ``delta``
    the tube radius; the family vanishes outside the tube.
    """

    params: TorusParams
    alpha_blow: float
    delta: float
    orbit: tuple

    def __post_init__(self):
        l_p = self.orbit[0]
        if not (self.alpha_blow > 0.0):
            raise DomainError("alpha must be positive, got %r" % (self.alpha_blow,))
        if not (0.0 < self.delta <= 0.5 * l_p):
            raise DomainError("tube radius must satisfy 0 < delta <= l_P/2, got delta=%r l_P=%r"
                              % (self.delta, l_p))

    def with_alpha(self, alpha: float) -> "BlowupFamily":
        return BlowupFamily(self.params, alpha, self.delta, self.orbit)


def minimal_orbit_family(p: TorusParams, alpha: float, eps0: float = 0.05) -> BlowupFamily:
    """Family at the shortest orbit (l-r, 0) with tube radius eps0*(l-r).

    That orbit is the disk point (-1, 0), which lies on the boundary of T, so
    half of the tube lies outside T; ``mt_scan(None, ...)`` integrates the
    closed forms over the whole tube all the same.  The mesh path of
    ``mt-scan`` scans another family, ``interior_orbit_family`` at (l, 0).
    """
    return BlowupFamily(p, alpha, eps0 * (p.l - p.r), (p.l - p.r, 0.0))


def interior_orbit_family(p: TorusParams, alpha: float) -> BlowupFamily:
    """Family at the central orbit (l, 0); the tube radius r/2 keeps it interior."""
    return BlowupFamily(p, alpha, p.r / 2.0, (p.l, 0.0))


def blowup_field(mesh: DiskMesh, fam: BlowupFamily) -> DiskField:
    """Nodal blow-up field on the main disk mesh (clamped to 0 outside the tube)."""
    p = fam.params
    alpha, delta = fam.alpha_blow, fam.delta
    d = orbit_distance_disk(p, mesh.nodes[:, 0], mesh.nodes[:, 1], fam.orbit)
    vals = np.where(d < delta, -2.0 * np.log(alpha + d * d) + 2.0 * math.log(alpha + delta * delta), 0.0)
    return DiskField(mesh, vals)


def blowup_closed_forms(fam: BlowupFamily):
    """Exact integrals of the rescaled-tube profile over the unit disk.

    Returns ``(exp_integral, grad_integral)`` with
    ``exp_integral = (alpha + delta^2) pi / alpha`` and
    ``grad_integral = 16 pi [ln((alpha + delta^2)/alpha) - delta^2/(alpha + delta^2)]``.
    """
    a, d2 = fam.alpha_blow, fam.delta**2
    exp_integral = (a + d2) * math.pi / a
    grad_integral = 16.0 * math.pi * (math.log((a + d2) / a) - d2 / (a + d2))
    return exp_integral, grad_integral


def blowup_profile_mean_integral(fam: BlowupFamily) -> float:
    """Exact integral of the tube profile itself over the unit disk."""
    a, d2 = fam.alpha_blow, fam.delta**2
    return TWO_PI * (math.log(a + d2) - ((a + d2) * math.log(a + d2) - a * math.log(a)) / d2 + 1.0)


def blowup_tube_disk_values(mesh: DiskMesh, fam: BlowupFamily) -> DiskField:
    """Rescaled tube profile sampled on a unit-disk mesh (mesh = the tube disk)."""
    a, d2 = fam.alpha_blow, fam.delta**2
    rho2 = mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1] ** 2
    return DiskField(mesh, 2.0 * np.log((a + d2) / (a + d2 * rho2)))


def blowup_tube_disk_quadrature(mesh: DiskMesh, fam: BlowupFamily):
    """Unweighted mesh quadrature of the two tube-disk integrals, on the operators of the weight 1.

    Counterpart of ``blowup_closed_forms`` with the unit-disk mesh standing
    for the rescaled tube cross-section; agreement within a few percent
    requires a resolved core (``h <= sqrt(alpha)/(2 delta)``).
    """
    stiff, mass, _ = _assemble_core(mesh, 1.0, 0.0)
    phi = blowup_tube_disk_values(mesh, fam).values
    exp_integral = weighted_sum(mass, np.exp(phi))
    grad_integral = weighted_sum(phi, stiff @ phi)
    return exp_integral, grad_integral


@dataclass(frozen=True)
class MTScanRow:
    """One scan point of the sharp-constant probe.

    ``ratio`` is the raw quotient ``grad_energy / (log_integral - mean_term)``
    and ``ratio_slope`` the difference quotient against the previous scan
    point; both tend to ``32 pi^2 l_P``.  The raw quotient carries
    O(1/ln(1/alpha)) offsets whose size scales like ``|2 ln delta|``: for
    tube radii around a tenth of the orbit radius both estimators sit inside
    the ``(1 +- delta/l_P)`` weight band by ``alpha ~ 1e-6``, while very thin
    tubes approach the band only at extreme concentrations.  ``resolved``
    says the mesh size is at most half the core radius ``sqrt(alpha)/r`` (in
    disk units); closed-form rows are always resolved.
    """

    alpha_blow: float
    grad_energy: float
    log_integral: float
    mean_term: float
    ratio: float
    ratio_slope: float
    c_hat: float
    resolved: bool


def mt_scan(mesh: DiskMesh | None, p: TorusParams, fam_base: BlowupFamily, alphas) -> list:
    """Evaluate the volume-inequality scan along decreasing ``alphas``.

    With ``mesh=None`` the tube-local closed forms are used (the family's
    orbit weight stands in for the affine factor, exact up to ``1 +- delta/l_P``);
    otherwise the fields are sampled and integrated on the mesh.
    ``c_hat = exp(log_integral - mu*grad_energy - mean_term)`` is the
    empirical inequality constant at ``mu = mu_best(p, "interior_dirichlet")``.
    A row with a value that is not finite, as the closed forms give once
    ``delta^2 / alpha`` overflows, raises ``DomainError`` naming its alpha;
    the mesh path's ``exp_capped`` raises ``OverflowError`` first.
    """
    alphas = [float(a) for a in alphas]
    if any(a <= 0.0 for a in alphas):
        raise DomainError("scan alphas must be positive")
    if any(a2 >= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise DomainError("scan alphas must be strictly decreasing")
    mu = mu_best(p, "interior_dirichlet")
    l_p = fam_base.orbit[0]
    vol = p.volume()

    rows = []
    prev = None
    for alpha in alphas:
        fam = fam_base.with_alpha(alpha)
        if mesh is None:
            exp_int, grad_int = blowup_closed_forms(fam)
            grad_energy = TWO_PI * l_p * grad_int
            # full torus integral: the field vanishes outside the tube, so the
            # bulk contributes Vol(T) and the tube contributes (e^phi - 1)
            tube = TWO_PI * l_p * fam.delta**2
            log_integral = math.log(vol + tube * (exp_int - math.pi))
            mean_term = tube * blowup_profile_mean_integral(fam) / vol
            resolved = True
        else:
            field = blowup_field(mesh, fam)
            grad_energy = dirichlet_energy(mesh, p, field)
            log_integral = math.log(integrate_volume(mesh, p, field, exp_capped))
            mean_term = mean_value(mesh, p, field)
            resolved = mesh.h <= math.sqrt(alpha) / (2.0 * p.r)
        denom = log_integral - mean_term
        ratio = grad_energy / denom
        slope = float("nan") if prev is None else (grad_energy - prev[0]) / (denom - prev[1])
        c_hat = math.exp(log_integral - mu * grad_energy - mean_term)
        if not all(map(math.isfinite, (grad_energy, log_integral, mean_term, ratio, c_hat))):
            raise DomainError("the scan row at alpha %r is not finite" % alpha)
        rows.append(MTScanRow(alpha, grad_energy, log_integral, mean_term, ratio, slope, c_hat, resolved))
        prev = (grad_energy, denom)
    return rows


# ---------------------------------------------------------------------------
# Truncated-logarithm sharpness family for the e^{alpha v^2} inequality
# ---------------------------------------------------------------------------

def default_moser_orbit(p: TorusParams, delta: float):
    """Interior orbit near the outer equator leaving a ``delta`` margin."""
    return (p.l + p.r - 2.0 * delta, 0.0)


def corollary_scan(p: TorusParams, rhos, alpha_exp: float) -> list:
    """Semi-analytic scan of ``int e^{alpha v^2}`` over the rescaled family.

    The family is the truncated logarithm ``ln(delta/d) / sqrt(2 pi
    ln(1/rho))`` of the distance d to the orbit, capped at its d = delta rho
    value and zero for d >= delta, so its trace vanishes.  It is radial in
    the tube distance, so the torus integral reduces exactly to a 1D radial
    quadrature times ``2 pi l_P`` (the odd part of the cylindrical weight
    cancels).  The rescale saturates the gradient bound:
    the profile's 2D gradient energy is exactly 1, hence the scale factor is
    ``sqrt((l + r)/l_P)``.  The tube radius is ``delta = r/8``, the orbit
    ``default_moser_orbit(p, delta)`` and the radial rule has 400 Gauss
    nodes.  A non-finite ``alpha_exp`` raises ``DomainError`` before any
    row.  Returns ``(rho, integral)`` pairs.
    """
    if not math.isfinite(alpha_exp):
        raise DomainError("exponent alpha_exp must be finite, got %r" % (alpha_exp,))
    delta = p.r / 8.0
    l_p = default_moser_orbit(p, delta)[0]
    c2 = (p.l + p.r) / l_p
    x, w = _gauss_legendre(400)
    vol = p.volume()
    rows = []
    for rho in rhos:
        if not (0.0 < rho < 1.0):
            raise DomainError("truncation rho must lie in (0, 1), got %r" % (rho,))
        cap2 = math.log(1.0 / rho) / TWO_PI  # squared plateau value
        arg_plateau = alpha_exp * c2 * cap2
        if arg_plateau > EXP_ARG_CAP:
            raise OverflowError("plateau exponent %g exceeds cap %g" % (arg_plateau, EXP_ARG_CAP))
        plateau = (math.exp(arg_plateau) - 1.0) * 0.5 * (delta * rho) ** 2
        # annulus: substitute u = ln(delta/d), d = delta e^{-u}
        big_l = math.log(1.0 / rho)
        u = 0.5 * big_l * (x + 1.0)
        integrand = (np.exp(alpha_exp * c2 * u**2 / (TWO_PI * big_l)) - 1.0) * np.exp(-2.0 * u)
        annulus = delta**2 * 0.5 * big_l * float(np.sum(w * integrand))
        rows.append((float(rho), vol + TWO_PI * l_p * TWO_PI * (plateau + annulus)))
    return rows
