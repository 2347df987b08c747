"""The solvers commute with the two exact symmetries of the discrete system, on the rows where they hold.

- **Shift** (Neumann records only).  Data ``lam (f, g)`` have the field
  ``v - ln(lam)``: ``F`` and its Jacobian are unchanged, since ``S 1 = 0``.
- **Dilation.**  ``(l, r, a, b, f, g) -> (sig l, sig r, a / sig^2, b / sig,
  f / sig^2, g / sig)`` multiplies the discrete system by ``sig`` and keeps
  the nodal field; for P1, ``(gamma, f) -> (gamma / sig^2, f / sig^2)``.

Each row compares one mapped solve with the unmapped one (``lam = sig =
1``) and needs no reference field.  Every solve runs at 32 rings with l, r
= 2, 1, by ``solve_p2_newton`` or ``solve_p1_newton``.  The data:

- ``readme``: a = b = 0, f = t + 0.55, g = 0;
- ``p2``: the benchmark's P2 data, a = b = 0.5, f = g = -0.5 e^-1 (1 + 0.1 t);
- ``p1``: gamma = 1.5, f = 1 + 0.2 t (Dirichlet, so dilation only).

The bound of a case is ``_STOPS`` times the unmapped solve's own stop,
``tol_abs + tol_rel * r0`` with ``r0`` the weighted residual of zero.  A
residual of weighted norm ``rho`` moves these fields by at most ``0.54
rho`` (readme, p2) and ``0.07 rho`` (p1) in the max norm, the gain of
``J^-1 W^1/2`` at the solution, so the bound admits two fields each a few
stops from the discrete solution.  The rows read 8.6e-16 to 8.1e-10.  The
p2 row at ``lam = 1e8``, 4.7e-6 off because ``tol_rel * r0`` grows with
``lam``, fails the bound by a factor of a thousand.

Rows left out, each a defect open in ROADMAP.md; none goes in as skipped
or expected to fail:

- readme, ``lam = 1e-8``: Newton stalls at residual 4.2e-11, as its valley
  stop ``r0 * 1e-6`` lies below the float64 floor once ``r0`` shrinks by
  1e-8;
- readme, ``lam = 1e8``: the valley test refuses the true field, as ``res *
  r0`` grows with ``lam`` and ``|w e^v|`` does not;
- p2, ``lam = 1e-8``: Newton from zero, 18.4 from the solution, stalls at
  residual 5.44;
- p2, ``lam = 1e8``: the error of 4.7e-6 above;
- readme, ``sig = 100``: about 2 s in the descent, whose absolute stop
  runs it to its 5,000-step cap;
- readme, ``sig = 1000``: raises ``NonConvergence``.
"""

import functools
import math

import numpy as np
import pytest

import torusbvp as tb

# the p2 data lie outside the sufficient existence window; the field exists all the same
pytestmark = pytest.mark.filterwarnings("ignore::torusbvp.errors.ExistenceWindowWarning")

# the bound of a case, in multiples of its unmapped solve's stop
_STOPS = 10.0


def p2_data(t, s):
    return -0.5 * math.exp(-1.0) * (1.0 + 0.1 * t)


CASES = {  # name: (a, b, f, g), P2 data; "p1": (gamma, f)
    "readme": (0.0, 0.0, lambda t, s: t + 0.55, lambda t, s: 0.0 * t),
    "p2": (0.5, 0.5, p2_data, p2_data),
    "p1": (1.5, lambda t, s: 1.0 + 0.2 * t),
}
SHIFT_ROWS = [(name, lam) for name in ("readme", "p2") for lam in (1e-4, 1e4)]
DILATION_ROWS = ([(name, sig) for name in ("p2", "p1") for sig in (1e-3, 1e-2, 1e2, 1e3)]
                 + [("readme", sig) for sig in (1e-3, 1e-2)])


@functools.lru_cache(maxsize=None)
def mesh():
    return tb.build_mesh(32)


def problem(name, lam=1.0, sig=1.0):
    """``(params, problem)`` of case ``name`` with its data scaled by ``lam`` and dilated by ``sig``."""
    m, p = mesh(), tb.TorusParams(2.0 * sig, 1.0 * sig)
    if name == "p1":
        gamma, f = CASES[name]
        return p, tb.ProblemP1(gamma / sig**2, tb.DiskField(m, lam * f(*m.nodes.T) / sig**2))
    a, b, f, g = CASES[name]
    return p, tb.ProblemP2(a / sig**2, b / sig, tb.DiskField(m, lam * f(*m.nodes.T) / sig**2),
                           tb.DiskField(m, lam * g(*m.nodes.T) / sig))


def solve(name, lam=1.0, sig=1.0):
    p, prob = problem(name, lam, sig)
    return (tb.solve_p1_newton if name == "p1" else tb.solve_p2_newton)(mesh(), p, prob).field.values


@functools.lru_cache(maxsize=None)
def unmapped(name):
    """The unmapped field of case ``name`` and its bound, ``_STOPS`` times that solve's own stop."""
    p, prob = problem(name)
    zero = tb.DiskField.constant(mesh(), 0.0)
    r0 = (tb.p1_residual_norm if name == "p1" else tb.p2_residual_norm)(mesh(), p, prob, zero)
    opts = tb.SolveOptions()
    return solve(name), _STOPS * (opts.tol_abs + opts.tol_rel * r0)


@pytest.mark.parametrize("name, lam", SHIFT_ROWS)
def test_scaled_data_shift_the_field_by_their_log(name, lam):
    v1, bound = unmapped(name)
    assert np.max(np.abs(solve(name, lam=lam) + math.log(lam) - v1)) <= bound


@pytest.mark.parametrize("name, sig", DILATION_ROWS)
def test_a_dilated_torus_keeps_the_nodal_field(name, sig):
    v1, bound = unmapped(name)
    assert np.max(np.abs(solve(name, sig=sig) - v1)) <= bound
