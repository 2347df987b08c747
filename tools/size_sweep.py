"""Print one line per solve of every route at the ring counts the harness names, to show what two trees return there.

The grid: ring counts 64, 65, 128, 129, 256 and 258 (odd counts and a
count that is not a power of two beside the powers of two), times three
geometries (l, r = 2, 1 / 3, 0.5 / 1.2, 1), times four routes

- ``p1_newton``: ``solve_p1_newton``, gamma = 1.5, f = 1 + 0.2 t;
- ``p2_newton``: ``solve_p2_newton`` on the benchmark's data, a = b =
  0.5, f = g = -0.5 e^-1 (1 + 0.1 t);
- ``readme_variational``: ``solve_p2_variational`` on the README's
  example, a = b = 0, f = t + 0.55, g = 0;
- ``p2_monotone``: ``solve_p2_monotone`` on the benchmark's monotone
  data, a = b = -1, f = 1 + 0.5 t^2, g = 1, between the constant
  subsolution -ln(1.5) and the supersolution 0, a nonzero residual.

Each line gives the ring count, the geometry and the route, then either
the sha256 digest (first 16 hex digits) of the returned field's values,
its iterations, energy, factorizations and two-grid cycles, or the class
of the exception the solve raised.  After a tab comes the time of the
solve in seconds: each route solves twice on a fresh mesh per ring count
and geometry, and the line reports the second, warm solve (its level
hierarchy built); a solve that raises is not repeated, and its time is
that of the cold solve.  Warnings are silenced.  Run from the root of
each source checkout and compare the outputs without the times::

    python tools/size_sweep.py > sweep.txt
    cut -f1 sweep.txt > rows.txt
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import torusbvp as tb

RINGS = (64, 65, 128, 129, 256, 258)
GEOMETRIES = ((2.0, 1.0), (3.0, 0.5), (1.2, 1.0))


def _p2_data(mesh):
    data = tb.DiskField(mesh, -0.5 * math.exp(-1.0) * (1.0 + 0.1 * mesh.nodes[:, 0]))
    return tb.ProblemP2(0.5, 0.5, data, data)


def _monotone(mesh, p):
    t = mesh.nodes[:, 0]
    prob = tb.ProblemP2(-1.0, -1.0, tb.DiskField(mesh, 1.0 + 0.5 * t * t), tb.DiskField.constant(mesh, 1.0))
    return tb.solve_p2_monotone(mesh, p, prob, tb.DiskField.constant(mesh, -math.log1p(0.5)),
                                tb.DiskField.constant(mesh, 0.0))


ROUTES = {
    "p1_newton": lambda mesh, p: tb.solve_p1_newton(
        mesh, p, tb.ProblemP1(1.5, tb.DiskField(mesh, 1.0 + 0.2 * mesh.nodes[:, 0]))),
    "p2_newton": lambda mesh, p: tb.solve_p2_newton(mesh, p, _p2_data(mesh)),
    "readme_variational": lambda mesh, p: tb.solve_p2_variational(
        mesh, p, tb.ProblemP2(0.0, 0.0, tb.DiskField(mesh, mesh.nodes[:, 0] + 0.55), tb.DiskField.constant(mesh, 0.0))),
    "p2_monotone": _monotone,
}


def _timed(solve, mesh, p):
    """``(report or exception, seconds)`` of one solve."""
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = solve(mesh, p)
    except tb.TorusBVPError as exc:
        out = exc
    return out, time.perf_counter() - start


def sweep_lines(rings: int) -> list:
    """One line per geometry and route of the grid at ``rings`` rings, its time after a tab."""
    lines = []
    for l, r in GEOMETRIES:
        p = tb.TorusParams(l, r)
        mesh = tb.build_mesh(rings)
        for route, solve in ROUTES.items():
            head = "%3d %g,%g %-18s" % (rings, l, r, route)
            out, seconds = _timed(solve, mesh, p)
            if not isinstance(out, tb.TorusBVPError):
                out, seconds = _timed(solve, mesh, p)
            if isinstance(out, tb.TorusBVPError):
                lines.append("%s raises %s\t%.3f s" % (head, type(out).__name__, seconds))
                continue
            lines.append("%s field %s iterations %d energy %r factorizations %d cycles %d\t%.3f s" % (
                head, hashlib.sha256(out.field.values.tobytes()).hexdigest()[:16], out.iterations,
                out.functional_value, out.factorizations, out.two_grid_cycles, seconds))
    return lines


def main() -> int:
    for rings in RINGS:
        for line in sweep_lines(rings):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
