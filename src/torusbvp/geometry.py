"""Solid torus geometry: validated radii, exact measures, orbit distances.

The solid torus with major radius ``l`` and minor radius ``r`` (``l > r > 0``)
is the set ``(sqrt(x^2+y^2) - l)^2 + z^2 <= r^2``.  Rotation-invariant data
reduce to functions of the disk coordinates ``t = (sqrt(x^2+y^2) - l)/r`` and
``s = z/r``; all integrals then carry the cylindrical weight ``r^2 (l + r t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class TorusParams:
    """Validated torus geometry (major radius ``l``, minor radius ``r``)."""

    l: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.l) and math.isfinite(self.r)):
            raise DomainError("torus radii must be finite, got l=%r r=%r" % (self.l, self.r))
        if not (self.l > self.r > 0.0):
            raise DomainError("torus radii must satisfy l > r > 0, got l=%r r=%r" % (self.l, self.r))

    def volume(self) -> float:
        """Volume of the solid torus, 2*pi^2*r^2*l."""
        return 2.0 * math.pi**2 * self.r**2 * self.l

    def boundary_area(self) -> float:
        """Area of the boundary torus, 4*pi^2*r*l."""
        return 4.0 * math.pi**2 * self.r * self.l


def orbit_distance_disk(p: TorusParams, t, s, orbit: tuple):
    """Distance to the circular orbit {sqrt(x^2+y^2) = l_P, z = z_P} from disk coordinates (vectorized).

    The lifted point ``(l + r t, r s)`` at any azimuth has this distance; for
    the inner-equator orbit (l-r, 0) it is ``r*sqrt((t+1)^2 + s^2)``.
    """
    l_p, z_p = orbit
    if l_p <= 0.0:
        raise DomainError("orbit horizontal radius must be positive, got %r" % (l_p,))
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    d = np.hypot(p.l + p.r * t - l_p, p.r * s - z_p)
    return float(d) if d.ndim == 0 else d
