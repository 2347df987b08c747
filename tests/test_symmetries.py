"""The solvers commute with the three exact symmetries of the discrete system, on the rows where they hold.

- **Shift** (Neumann records only).  Data ``lam (f, g)`` have the field
  ``v - ln(lam)``: ``F`` and its Jacobian are unchanged, since ``S 1 = 0``.
- **Dilation.**  ``(l, r, a, b, f, g) -> (sig l, sig r, a / sig^2, b / sig,
  f / sig^2, g / sig)`` multiplies the discrete system by ``sig`` and keeps
  the nodal field; for P1, ``(gamma, f) -> (gamma / sig^2, f / sig^2)``.
- **Mirror.**  ``(t, s) -> (t, -s)`` maps the ring mesh onto itself
  (``oracles.mirror_permutation``) and the torus weights depend on ``t``
  alone, so data read at ``(t, -s)`` have the field read at the mirrored
  nodes.  Unlike the other two maps it relabels the nodes, so it also
  checks that no result depends on the node order beyond roundoff.

Each row compares one mapped solve with the unmapped one (``lam = sig =
1``, no mirror) and needs no reference field.  Every solve runs with l, r
= 2, 1, by ``solve_p2_newton`` or ``solve_p1_newton``, at 32 rings, and
the mirror rows at 32 and 33.  The data:

- ``readme``: a = b = 0, f = t + 0.55, g = 0;
- ``p2``: the benchmark's P2 data, a = b = 0.5, f = g = -0.5 e^-1 (1 + 0.1 t);
- ``p1``: gamma = 1.5, f = 1 + 0.2 t (Dirichlet, so dilation only);
- ``p2_tilted`` and ``p1_tilted``: ``p2`` and ``p1`` with 0.3 s added
  beside the t term, for the mirror rows, since data even in s map to
  themselves.

The bound of a case is ``_STOPS`` times the unmapped solve's data-only
stop, ``tol_abs + tol_rel * r0`` with ``r0`` the weighted residual of zero,
at or above the stop that solve meets.  A residual of weighted norm
``rho`` moves these fields by at most ``0.54 rho`` (readme, p2) and ``0.07
rho`` (p1) in the max norm, the gain of ``J^-1 W^1/2`` at the solution, so
the bound admits two fields each a few stops from the discrete solution.
Newton's stop reads the terms at each level's start, which a shift leaves
as they are, so every shift row, the p2 row at ``lam = 1e8`` included,
lands at roundoff; a stop read from ``r0`` alone grows with ``lam`` and
fails the ``lam = 1e4`` and ``1e8`` rows.  The rows read 5.6e-16 to
5.9e-13, the mirror rows among them 5.8e-16 to 2.6e-14; a stiffness weight
read as ``l + r t + 0.01 s`` moves those four by 6e-4 to 3e-3.

Rows left out, each a defect open in ROADMAP.md; none goes in as skipped
or expected to fail:

- readme, ``lam = 1e-8``: Newton stalls at residual 4.2e-11, as its valley
  stop ``r0 * 1e-6`` lies below the float64 floor once ``r0`` shrinks by
  1e-8;
- readme, ``lam = 1e8``: the valley test refuses the true field, as ``res *
  r0`` grows with ``lam`` and ``|w e^v|`` does not;
- p2, ``lam = 1e-8``: Newton from zero, 18.4 from the solution, stalls at
  residual 5.44;
- readme, ``sig = 100``: about 2 s in the descent, whose absolute stop
  runs it to its 5,000-step cap;
- readme, ``sig = 1000``: raises ``NonConvergence``.
"""

import functools
import math

import numpy as np
import pytest

import torusbvp as tb
from oracles import mirror_permutation

# the p2 data lie outside the sufficient existence window; the field exists all the same
pytestmark = pytest.mark.filterwarnings("ignore::torusbvp.errors.ExistenceWindowWarning")

# the bound of a case, in multiples of its unmapped solve's stop
_STOPS = 10.0


def p2_data(t, s, tilt=0.0):
    return -0.5 * math.exp(-1.0) * (1.0 + 0.1 * t + tilt * s)


p2_tilted = functools.partial(p2_data, tilt=0.3)
CASES = {  # name: (a, b, f, g), P2 data; "p1...": (gamma, f)
    "readme": (0.0, 0.0, lambda t, s: t + 0.55, lambda t, s: 0.0 * t),
    "p2": (0.5, 0.5, p2_data, p2_data),
    "p1": (1.5, lambda t, s: 1.0 + 0.2 * t),
    "p2_tilted": (0.5, 0.5, p2_tilted, p2_tilted),
    "p1_tilted": (1.5, lambda t, s: 1.0 + 0.2 * t + 0.3 * s),
}
SHIFT_ROWS = [(name, lam) for name in ("readme", "p2") for lam in (1e-4, 1e4)] + [("p2", 1e8)]
DILATION_ROWS = ([(name, sig) for name in ("p2", "p1") for sig in (1e-3, 1e-2, 1e2, 1e3)]
                 + [("readme", sig) for sig in (1e-3, 1e-2)])
MIRROR_ROWS = [(name, n) for name in ("p2_tilted", "p1_tilted") for n in (32, 33)]


@functools.lru_cache(maxsize=None)
def mesh(n=32):
    return tb.build_mesh(n)


def problem(name, lam=1.0, sig=1.0, n=32, mirror=False):
    """``(params, problem)`` of ``name`` on ``n`` rings, data scaled by ``lam``, dilated by ``sig``, maybe mirrored."""
    m, p = mesh(n), tb.TorusParams(2.0 * sig, 1.0 * sig)
    t, s = m.nodes.T
    s = -s if mirror else s
    if name.startswith("p1"):
        gamma, f = CASES[name]
        return p, tb.ProblemP1(gamma / sig**2, tb.DiskField(m, lam * f(t, s) / sig**2))
    a, b, f, g = CASES[name]
    return p, tb.ProblemP2(a / sig**2, b / sig, tb.DiskField(m, lam * f(t, s) / sig**2),
                           tb.DiskField(m, lam * g(t, s) / sig))


def solve(name, lam=1.0, sig=1.0, n=32, mirror=False):
    p, prob = problem(name, lam, sig, n, mirror)
    return (tb.solve_p1_newton if name.startswith("p1") else tb.solve_p2_newton)(mesh(n), p, prob).field.values


@functools.lru_cache(maxsize=None)
def unmapped(name, n=32):
    """The unmapped field of case ``name`` on ``n`` rings and its bound, ``_STOPS`` times its data-only stop."""
    p, prob = problem(name, n=n)
    zero = tb.DiskField.constant(mesh(n), 0.0)
    r0 = (tb.p1_residual_norm if name.startswith("p1") else tb.p2_residual_norm)(mesh(n), p, prob, zero)
    opts = tb.SolveOptions()
    return solve(name, n=n), _STOPS * (opts.tol_abs + opts.tol_rel * r0)


@pytest.mark.parametrize("name, lam", SHIFT_ROWS)
def test_scaled_data_shift_the_field_by_their_log(name, lam):
    v1, bound = unmapped(name)
    assert np.max(np.abs(solve(name, lam=lam) + math.log(lam) - v1)) <= bound


@pytest.mark.parametrize("name, sig", DILATION_ROWS)
def test_a_dilated_torus_keeps_the_nodal_field(name, sig):
    v1, bound = unmapped(name)
    assert np.max(np.abs(solve(name, sig=sig) - v1)) <= bound


@pytest.mark.parametrize("name, n", MIRROR_ROWS)
def test_mirrored_data_have_the_mirrored_field(name, n):
    v1, bound = unmapped(name, n)
    assert np.max(np.abs(solve(name, n=n, mirror=True) - v1[mirror_permutation(n)])) <= bound
