"""Print one row per solve of two fixed grids, to show what two trees return.

Both grids run three geometries (l, r = 2, 1 / 3, 0.5 / 1.2, 1).

- ``zero_linear``, at 16, 32 and 64 rings: P2's Nirenberg-type case a = b
  = 0, whose discrete residual ``S v + w e^v`` tends to zero along the
  constant fields ``v -> -inf``, so these are the solves that run the
  bordered Newton of ``solvers._newton_loop``, whose system has no root
  down that valley.  Four data (g = 0 unless given)

  - ``readme``: f = t + 0.55, the README's example;
  - ``f_both_signs``: f = t^2 + s^2 - 0.2;
  - ``g_both_signs``: f = 0, g = t + 0.8;
  - ``small_total``: f = 0.2505 - t^2, whose total is near zero;

  times three routes: ``newton`` (``solve_p2_newton``), ``variational``
  (``solve_p2_variational``) and ``variational_zero``, the single-level
  route from ``init = zero``.  108 rows.
- ``size``, at 64, 65, 128, 129, 256 and 258 rings (odd counts and a
  count that is not a power of two beside the powers of two), six routes

  - ``p1_newton``: ``solve_p1_newton``, gamma = 1.5, f = 1 + 0.2 t;
  - ``p1_variational``: ``solve_p1_variational`` on the same data;
  - ``p1_variational_gamma0``: ``solve_p1_variational``, gamma = 0, f =
    -(t + 0.55), the README's example as a P1 problem;
  - ``p2_newton``: ``solve_p2_newton`` on the benchmark's data, a = b =
    0.5, f = g = -0.5 e^-1 (1 + 0.1 t);
  - ``readme_variational``: ``solve_p2_variational`` on the README's
    example, a = b = 0, f = t + 0.55, g = 0;
  - ``p2_monotone``: ``solve_p2_monotone`` on the benchmark's monotone
    data, a = b = -1, f = 1 + 0.5 t^2, g = 1, between the constant
    subsolution -ln(1.5) and the supersolution 0, a nonzero residual.

  108 rows.

Each case is solved twice on a fresh mesh per ring count and geometry, and
its row reports the second, warm solve (its level hierarchy built); a
solve that raises is not repeated.  A row gives the grid, the ring count,
the geometry and the case, then either the sha256 digest (first 16 hex
digits) of the returned field's values, its iterations, energy,
factorizations and two-grid cycles, or the class of the exception the
solve raised.  After a tab comes the time of that solve in seconds.
Warnings are silenced.  A header line first gives the numpy and scipy
versions.  Run from the root of each source checkout and compare the rows
without the times::

    python tools/solve_sweep.py | cut -f1 > rows.txt

``tests/golden/solve_sweep.txt`` holds the 144 rows, times cut, at each
grid's ``pinned`` ring counts, which fit Tier-1, and
``tests/test_solve_sweep.py`` compares them.  A change that moves a row by design rewrites it::

    PYTHONPATH=tools python -c "import solve_sweep as s; print(*s.rows((g, g.pinned) for g in s.GRIDS), sep='\\n')" \\
        | cut -f1 > tests/golden/solve_sweep.txt
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import warnings
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import torusbvp as tb

GEOMETRIES = ((2.0, 1.0), (3.0, 0.5), (1.2, 1.0))


class Grid(NamedTuple):
    name: str
    rings: tuple  # what main prints
    pinned: tuple  # the ring counts of the golden rows
    cases: dict  # name -> solve(mesh, params)


def _zero_linear(f, g, route):
    def solve(mesh, p):
        return route(mesh, p, tb.ProblemP2(0.0, 0.0, tb.DiskField.from_function(mesh, f),
                                           tb.DiskField.from_function(mesh, g)))
    return solve


ZERO_LINEAR_DATA = {  # (f, g)
    "readme": (lambda t, s: t + 0.55, lambda t, s: 0.0 * t),
    "f_both_signs": (lambda t, s: t * t + s * s - 0.2, lambda t, s: 0.0 * t),
    "g_both_signs": (lambda t, s: 0.0 * t, lambda t, s: t + 0.8),
    "small_total": (lambda t, s: 0.2505 - t * t, lambda t, s: 0.0 * t),
}
ZERO_LINEAR_ROUTES = {
    "newton": tb.solve_p2_newton,
    "variational": tb.solve_p2_variational,
    "variational_zero": lambda mesh, p, prob: tb.solve_p2_variational(mesh, p, prob,
                                                                      init=tb.DiskField.constant(mesh, 0.0)),
}


def _p1_data(mesh):
    return tb.ProblemP1(1.5, tb.DiskField(mesh, 1.0 + 0.2 * mesh.nodes[:, 0]))


def _p2_data(mesh):
    data = tb.DiskField(mesh, -0.5 * math.exp(-1.0) * (1.0 + 0.1 * mesh.nodes[:, 0]))
    return tb.ProblemP2(0.5, 0.5, data, data)


def _monotone(mesh, p):
    t = mesh.nodes[:, 0]
    prob = tb.ProblemP2(-1.0, -1.0, tb.DiskField(mesh, 1.0 + 0.5 * t * t), tb.DiskField.constant(mesh, 1.0))
    return tb.solve_p2_monotone(mesh, p, prob, tb.DiskField.constant(mesh, -math.log1p(0.5)),
                                tb.DiskField.constant(mesh, 0.0))


GRIDS = (
    Grid("zero_linear", (16, 32, 64), (8, 16), {
        "%s/%s" % (data, route): _zero_linear(f, g, solve)
        for data, (f, g) in ZERO_LINEAR_DATA.items() for route, solve in ZERO_LINEAR_ROUTES.items()}),
    Grid("size", (64, 65, 128, 129, 256, 258), (8, 9, 16, 17), {
        "p1_newton": lambda mesh, p: tb.solve_p1_newton(mesh, p, _p1_data(mesh)),
        "p1_variational": lambda mesh, p: tb.solve_p1_variational(mesh, p, _p1_data(mesh)),
        "p1_variational_gamma0": lambda mesh, p: tb.solve_p1_variational(
            mesh, p, tb.ProblemP1(0.0, tb.DiskField(mesh, -(mesh.nodes[:, 0] + 0.55)))),
        "p2_newton": lambda mesh, p: tb.solve_p2_newton(mesh, p, _p2_data(mesh)),
        "readme_variational": lambda mesh, p: tb.solve_p2_variational(mesh, p, tb.ProblemP2(
            0.0, 0.0, tb.DiskField(mesh, mesh.nodes[:, 0] + 0.55), tb.DiskField.constant(mesh, 0.0))),
        "p2_monotone": _monotone,
    }),
)


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


def sweep_lines(grid: Grid, rings: int) -> list:
    """One row per geometry and case of ``grid`` at ``rings`` rings, its time after a tab."""
    lines = []
    for l, r in GEOMETRIES:
        p = tb.TorusParams(l, r)
        mesh = tb.build_mesh(rings)
        for case, solve in grid.cases.items():
            head = "%-11s %3d %g,%g %-29s" % (grid.name, rings, l, r, case)
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


def rows(grids: Iterable) -> Iterator[str]:
    """The version header, then the rows of each ``(grid, ring counts)`` pair."""
    yield "# numpy %s scipy %s" % (np.__version__, scipy.__version__)  # the bits depend on both
    for grid, ring_counts in grids:
        for rings in ring_counts:
            yield from sweep_lines(grid, rings)


def main() -> int:
    for line in rows((grid, grid.rings) for grid in GRIDS):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
