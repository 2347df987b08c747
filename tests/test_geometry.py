import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusbvp as tb
from oracles import mc_boundary_area, mc_volume


def test_torus_params_examples():
    p = tb.TorusParams(2, 1)
    assert (p.l, p.r) == (2.0, 1.0)
    with pytest.raises(tb.DomainError):
        tb.TorusParams(1, 1)
    with pytest.raises(tb.DomainError):
        tb.TorusParams(2, -1)
    with pytest.raises(tb.DomainError):
        tb.TorusParams(float("inf"), 1)


@pytest.mark.parametrize("l,r,vol,area", [
    (2.0, 1.0, 4 * math.pi**2, 8 * math.pi**2),
    (3.0, 1.0, 6 * math.pi**2, 12 * math.pi**2),
    (3.0, 2.0, 24 * math.pi**2, 24 * math.pi**2),
])
def test_exact_measures(l, r, vol, area):
    p = tb.TorusParams(l, r)
    assert p.volume() == pytest.approx(vol, rel=1e-15)
    assert p.boundary_area() == pytest.approx(area, rel=1e-15)


def test_measures_against_monte_carlo():
    rng = np.random.default_rng(7)
    for l, r in [(2.0, 1.0), (3.0, 2.0)]:
        p = tb.TorusParams(l, r)
        est, sigma = mc_volume(l, r, 200_000, rng)
        assert abs(est - p.volume()) <= 3 * sigma
        est, sigma = mc_boundary_area(l, r, 200_000, rng)
        assert abs(est - p.boundary_area()) <= 3 * sigma


def lift(p, t, s, omega):
    """Cartesian point of the torus with disk coordinates (t, s) at azimuth ``omega``."""
    rho = p.l + p.r * t
    return rho * math.cos(omega), rho * math.sin(omega), p.r * s


def distance_to_orbit(x, y, z, orbit):
    """Euclidean distance from (x, y, z) to the circle of radius l_P at height z_P."""
    l_p, z_p = orbit
    return math.hypot(math.hypot(x, y) - l_p, z - z_p)


def test_orbit_distance_examples():
    p = tb.TorusParams(2, 1)
    # the points (2, 0, 0) and (0, 1.5, -0.2) of the torus
    assert tb.orbit_distance_disk(p, 0.0, 0.0, (1.0, 0.0)) == pytest.approx(1.0)
    assert tb.orbit_distance_disk(p, -0.5, -0.2, (1.5, -0.2)) == pytest.approx(0.0)
    with pytest.raises(tb.DomainError):
        tb.orbit_distance_disk(p, 0.0, 0.0, (0.0, 0.0))


def test_orbit_distance_disk_identity():
    p = tb.TorusParams(2, 1)
    rng = np.random.default_rng(3)
    for _ in range(200):
        rad = math.sqrt(rng.uniform(0, 1))
        ang = rng.uniform(0, 2 * math.pi)
        t, s = rad * math.cos(ang), rad * math.sin(ang)
        d3 = distance_to_orbit(*lift(p, t, s, rng.uniform(0, 2 * math.pi)), (p.l - p.r, 0.0))
        d2 = tb.orbit_distance_disk(p, t, s, (p.l - p.r, 0.0))
        assert d3 == pytest.approx(d2, abs=1e-12)
        assert d2 == pytest.approx(p.r * math.hypot(t + 1.0, s), abs=1e-12)


@settings(max_examples=60, derandomize=True)
@given(
    omega=st.floats(0, 2 * math.pi),
    phi=st.floats(0, 2 * math.pi),
    rad=st.floats(0, 0.999),
    lp=st.floats(0.5, 3.0),
    zp=st.floats(-1.0, 1.0),
)
def test_orbit_distance_rotation_invariant(omega, phi, rad, lp, zp):
    p = tb.TorusParams(2, 1)
    t, s = rad * math.cos(phi), rad * math.sin(phi)
    d1 = distance_to_orbit(*lift(p, t, s, omega), (lp, zp))
    d2 = distance_to_orbit(*lift(p, t, s, omega + 1.234), (lp, zp))
    assert d1 == pytest.approx(d2, abs=1e-12)
    assert tb.orbit_distance_disk(p, t, s, (lp, zp)) == pytest.approx(d1, abs=1e-12)
