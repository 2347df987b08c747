"""Variational functionals, constraint values and integral identities.

Problem data live on mesh nodes as ``DiskField``s.  ``ProblemP2.terms`` is
the one place where the lumped masses meet the data: it returns the linear
terms ``c = M a + M_b b`` and the exponential weights ``w = M f + M_b g``
of the discrete equation ``S v + c + w e^v = 0``.  The constraint, the
energy, the identities and the density shift are sums over those two
arrays, so the constraint value is the sum of the equation's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, NoRootError
from .geometry import TorusParams
from .mesh import (TWO_PI, DiskField, DiskMesh, WeightedOperators, _triangle_geometry, assemble, dirichlet_energy,
                   weighted_sum)

EXP_ARG_CAP = 700.0


def exp_capped(x):
    """Exponential with a hard argument cap; raises ``OverflowError`` beyond it.

    Saturating silently would corrupt constraint values, so arguments above
    700 (just below the float64 overflow threshold) are treated as errors.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x > EXP_ARG_CAP):
        raise OverflowError("exponential argument exceeds cap %g" % EXP_ARG_CAP)
    out = np.exp(x)
    return float(out) if out.ndim == 0 else out


def grad_energy_weighted(mesh: DiskMesh, p: TorusParams, field: DiskField) -> float:
    """Integral of ``|grad v|^2 e^{-v}``, with piecewise-constant gradients and e^{-v} at triangle centroids.

    The gradient term of identity (6.14) and of the multiplier ``kappa``;
    the unweighted integral is ``dirichlet_energy``.  A centroid value below
    ``-EXP_ARG_CAP`` raises the cap's ``OverflowError``.
    """
    areas, gx, gy, t_cent = _triangle_geometry(mesh)
    tri = mesh.triangles
    v = field.values
    vt = v[tri.T]
    dx, dy = gx[0] * vt[0] + gx[1] * vt[1] + gx[2] * vt[2], gy[0] * vt[0] + gy[1] * vt[1] + gy[2] * vt[2]
    weights = exp_capped(-v[tri].mean(axis=1))
    return float(TWO_PI * np.sum(areas * (p.l + p.r * t_cent) * ((dx * dx + dy * dy) * weights)))


@dataclass(frozen=True)
class ProblemP1:
    """Dirichlet problem data: Delta v + gamma = f e^v on T, v = 0 on the boundary."""

    gamma: float
    f: DiskField

    def as_p2(self) -> ProblemP2:
        """The same equation as Neumann data: a = gamma, f -> -f, b = g = 0."""
        mesh = self.f.mesh
        return ProblemP2(self.gamma, 0.0, DiskField(mesh, -self.f.values), DiskField.constant(mesh, 0.0))


@dataclass(frozen=True)
class ProblemP2:
    """Nonlinear Neumann problem data.

    Delta v + a + f e^v = 0 in T and dv/dn + b + g e^v = 0 on the boundary;
    ``g`` is stored as a nodal field but only its boundary trace enters.
    """

    a: float
    b: float
    f: DiskField
    g: DiskField

    def R(self, p: TorusParams) -> float:
        """Linear part a*Vol(T) + b*Vol(boundary) of the compatibility value."""
        return self.a * p.volume() + self.b * p.boundary_area()

    def terms(self, ops: WeightedOperators):
        """``(c, w)``: the linear terms ``M a + M_b b`` and exponential weights ``M f + M_b g``.

        The one product of the masses with the data; built per solve, not cached.
        """
        m, mb = ops.volume_mass, ops.boundary_mass
        return m * self.a + mb * self.b, m * self.f.values + mb * self.g.values


def functional_I_p1(mesh: DiskMesh, p: TorusParams, field: DiskField, prob: ProblemP1) -> float:
    """Energy ``|grad v|^2 + 2 gamma * integral(v)``: twice the core energy of ``prob.as_p2()``."""
    return 2.0 * functional_I_p2(mesh, p, field, prob.as_p2())


def constraint_A_p1(mesh: DiskMesh, p: TorusParams, field: DiskField, prob: ProblemP1) -> float:
    """Residual ``integral(f e^v) - gamma * Vol(T)``: ``-constraint_K`` of ``prob.as_p2()``.

    The volume is the discrete one (sum of the lumped mass), so constant
    feasible data are exactly feasible.
    """
    return -constraint_K(mesh, p, field, prob.as_p2())


def functional_I_p2(mesh: DiskMesh, p: TorusParams, field: DiskField, prob: ProblemP2) -> float:
    """Energy ``0.5 |grad v|^2 + a integral(v) + b boundary-integral(v)``: ``0.5 v'Sv + sum(c v)``."""
    c, _ = prob.terms(assemble(mesh, p))
    return 0.5 * dirichlet_energy(mesh, p, field) + weighted_sum(c, field.values)


def constraint_K(mesh: DiskMesh, p: TorusParams, field: DiskField, prob: ProblemP2) -> float:
    """Compatibility value K(v) = a Vol + b Vol_b + int(f e^v) + bint(g e^v): ``sum(c) + sum(w e^v)``.

    The sum of the rows of ``S v + c + w e^v``, as the stiffness rows sum to
    zero, so it vanishes on every solution of the Neumann problem.
    """
    c, w = prob.terms(assemble(mesh, p))
    return float(np.sum(c)) + weighted_sum(w, exp_capped(field.values))


def identity_6_14_residual(mesh: DiskMesh, p: TorusParams, field: DiskField, prob: ProblemP2) -> float:
    """Residual of the e^{-v}-weighted compatibility identity.

    ``a int(e^-v) + b bint(e^-v) + int(f) + bint(g) - int(e^-v |grad v|^2)``,
    the sums ``sum(c e^-v) + sum(w)`` less the gradient term, is zero (to
    quadrature accuracy) exactly when the field solves the Neumann problem.
    The gradient term uses piecewise-constant gradients and centroid values
    of e^{-v}.
    """
    c, w = prob.terms(assemble(mesh, p))
    grad_term = grad_energy_weighted(mesh, p, field)
    return weighted_sum(c, exp_capped(-field.values)) + float(np.sum(w)) - grad_term


def data_total(mesh: DiskMesh, p: TorusParams, prob: ProblemP2) -> float:
    """``int(f) + bint(g)``, the sum of the weights ``w``, or 0.0 where roundoff alone could set its sign.

    A total of at most ``8 eps sum(|w|)`` in size lies at the roundoff of
    its own sum, so its sign means nothing and it counts as zero.
    """
    _, w = prob.terms(assemble(mesh, p))
    total = float(np.sum(w))
    return total if abs(total) > 8.0 * np.finfo(float).eps * float(np.sum(np.abs(w))) else 0.0


def multiplier_kappa(mesh: DiskMesh, p: TorusParams, field: DiskField, prob: ProblemP2) -> float:
    """Constraint multiplier of the a=b=0 minimization.

    ``kappa = int(|grad v|^2 e^-v) / (int f + bint g)``; positive whenever the
    data admit the problem.  The solution of the Neumann problem is the
    shifted field ``v + ln(kappa)`` (calibrated against exact solutions).
    """
    denom = data_total(mesh, p, prob)
    if denom == 0.0:
        raise DomainError("multiplier undefined: int(f) + bint(g) vanishes")
    num = grad_energy_weighted(mesh, p, field)
    return num / denom


def mean_value(mesh: DiskMesh, p: TorusParams, field: DiskField) -> float:
    """Weighted mean of the field over the torus volume."""
    w = assemble(mesh, p).volume_mass
    return weighted_sum(w, field.values) / float(np.sum(w))


def reach_exponential_target(mesh: DiskMesh, p: TorusParams, prob: ProblemP2,
                             base: np.ndarray, target: float) -> np.ndarray:
    """``base - s d`` with ``sum(w e^v) = int(f e^v) + bint(g e^v) = target``, ``d`` the nodal density.

    ``d = w / (M + M_b)``, with ``w`` the weights of ``prob.terms``, so the
    value phi(s) of the shifted field has ``phi'(s) = -sum w^2 e^v / (M +
    M_b) < 0``.  Its range is the real line when ``d`` changes sign and the
    half line of ``d``'s sign otherwise; a target outside it raises ``InfeasibleError``.
    With ``P`` and ``N`` the positive and negative parts of ``phi - target``,
    ``log P - log N`` is strictly decreasing, finite at every ``s`` and
    asymptotically linear, and safeguarded Newton finds its root.
    """
    ops = assemble(mesh, p)
    _, w = prob.terms(ops)
    d = w / (ops.volume_mass + ops.boundary_mass)
    parts = []  # (log of |term| at s = 0, density) of the positive, then the negative terms
    for sign in (1.0, -1.0):
        side = sign * w > 0.0
        logs, dens = np.log(sign * w[side]) + base[side], d[side]
        if sign * target < 0.0:
            logs, dens = np.append(logs, math.log(abs(target))), np.append(dens, 0.0)
        if logs.size == 0:
            raise InfeasibleError("data have no values of the sign needed to reach the target %g" % target)
        parts.append((logs, dens))

    def log_part(s, logs, dens):
        x = logs - s * dens
        top = float(np.max(x))
        e = np.exp(x - top)
        total = float(np.sum(e))
        return top + math.log(total), -weighted_sum(e, dens) / total

    s, lo, hi = 0.0, -math.inf, math.inf
    scale, eps = 1.0 / float(np.max(np.abs(d))), np.finfo(float).eps
    for _ in range(100):
        (lp, dp), (ln, dn) = (log_part(s, *part) for part in parts)
        gap = lp - ln
        if gap > 0.0:
            lo = s
        else:
            hi = s
        step = -gap / (dp - dn)
        # gap at the roundoff of its logs, or a step at the roundoff of s: one last step
        if abs(gap) <= 4.0 * eps * (1.0 + abs(lp) + abs(ln)) or abs(step) <= 4.0 * eps * (abs(s) + scale):
            return base - (s + step) * d
        s = s + step if lo < s + step < hi else 0.5 * (lo + hi)
    raise NoRootError("density shift did not converge to the target %g" % target)
