"""Print one line per a = b = 0 solve of a fixed grid, to show what two trees return on P2's Nirenberg-type case.

With a = b = 0 the discrete residual ``S v + w e^v`` tends to zero along
the constant fields ``v -> -inf``, so these are the solves that the valley
test of ``solvers._newton_loop`` decides.  The grid: three geometries
(l, r = 2, 1 / 3, 0.5 / 1.2, 1) times four data (g = 0 unless given)

- ``readme``: f = t + 0.55, the README's example;
- ``f_both_signs``: f = t^2 + s^2 - 0.2;
- ``g_both_signs``: f = 0, g = t + 0.8;
- ``small_total``: f = 0.2505 - t^2, whose total is near zero;

times three routes: ``solve_p2_newton``, ``solve_p2_variational`` and
``solve_p2_variational`` from ``init = zero``, the single-level route.
Each line gives the ring count, the geometry, the data and the route,
then either the sha256 digest (first 16 hex digits) of the returned
field's values, its iterations, energy, factorizations and two-grid
cycles, or the class of the exception the solve raised.

The ring counts are 16, 32 and 64, 108 solves in all.  Run from the root
of each source checkout and compare the outputs::

    python tools/zero_linear_sweep.py > sweep.txt
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import torusbvp as tb

RINGS = (16, 32, 64)
GEOMETRIES = ((2.0, 1.0), (3.0, 0.5), (1.2, 1.0))
DATA = {  # (f, g)
    "readme": (lambda t, s: t + 0.55, lambda t, s: 0.0 * t),
    "f_both_signs": (lambda t, s: t * t + s * s - 0.2, lambda t, s: 0.0 * t),
    "g_both_signs": (lambda t, s: 0.0 * t, lambda t, s: t + 0.8),
    "small_total": (lambda t, s: 0.2505 - t * t, lambda t, s: 0.0 * t),
}
ROUTES = {
    "newton": lambda mesh, p, prob: tb.solve_p2_newton(mesh, p, prob),
    "variational": lambda mesh, p, prob: tb.solve_p2_variational(mesh, p, prob),
    "variational_zero": lambda mesh, p, prob: tb.solve_p2_variational(mesh, p, prob,
                                                                      init=tb.DiskField.constant(mesh, 0.0)),
}


def sweep_lines(rings: int) -> list:
    """One line per geometry, data and route of the grid at ``rings`` rings."""
    mesh = tb.build_mesh(rings)
    lines = []
    for l, r in GEOMETRIES:
        p = tb.TorusParams(l, r)
        for name, (f, g) in DATA.items():
            prob = tb.ProblemP2(0.0, 0.0, tb.DiskField.from_function(mesh, f), tb.DiskField.from_function(mesh, g))
            for route, solve in ROUTES.items():
                head = "%3d %g,%g %-12s %-16s" % (rings, l, r, name, route)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        rep = solve(mesh, p, prob)
                except tb.TorusBVPError as exc:
                    lines.append("%s raises %s" % (head, type(exc).__name__))
                    continue
                lines.append("%s field %s iterations %d energy %r factorizations %d cycles %d" % (
                    head, hashlib.sha256(rep.field.values.tobytes()).hexdigest()[:16], rep.iterations,
                    rep.functional_value, rep.factorizations, rep.two_grid_cycles))
    return lines


def main() -> int:
    for rings in RINGS:
        for line in sweep_lines(rings):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
