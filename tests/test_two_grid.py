"""The finest nested Newton level solves by two-grid cycles, not by a factor.

From ``_TWO_GRID_MIN_RINGS`` rings on, each Newton system of the finest level
is solved by damped Jacobi sweeps around a coarse correction with the last
factor of the level below, to a tenth of Newton's tolerance.  Raising the
threshold above the mesh puts a solve back on the direct path, which must
take the same steps to the same field.
"""

import math

import numpy as np
import pytest

import torusbvp as tb
from torusbvp import solvers


def p1_case(mesh, gamma, c):
    return tb.solve_p1_newton, tb.ProblemP1(gamma, tb.DiskField(mesh, 1.0 + c * mesh.nodes[:, 0]))


def p2_case(mesh, c):
    data = tb.DiskField(mesh, -0.5 * math.exp(-1.0) * (1.0 + c * mesh.nodes[:, 0]))
    return tb.solve_p2_newton, tb.ProblemP2(0.5, 0.5, data, data)


CASES = {"p1 gamma=1.5 c=-0.3": lambda m: p1_case(m, 1.5, -0.3),
         "p1 gamma=1.5 c=0.3": lambda m: p1_case(m, 1.5, 0.3),
         "p1 gamma=2.5 c=-0.3": lambda m: p1_case(m, 2.5, -0.3),
         "p1 gamma=2.5 c=0.3": lambda m: p1_case(m, 2.5, 0.3),
         "p2 c=-0.2": lambda m: p2_case(m, -0.2),
         "p2 c=0.2": lambda m: p2_case(m, 0.2)}


def direct(monkeypatch, solve, *args):
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_TWO_GRID_MIN_RINGS", 10**9)
        return solve(*args)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("case", list(CASES))
def test_two_grid_matches_the_direct_path(params, monkeypatch, case, n):
    mesh = tb.build_mesh(n)
    solve, prob = CASES[case](mesh)
    ref = direct(monkeypatch, solve, mesh, params, prob)
    rep = solve(mesh, params, prob)
    fine = len(rep.trace) - 1
    assert rep.iterations == ref.iterations and fine >= 1
    assert np.linalg.norm(rep.field.values - ref.field.values) <= 1e-12 * np.linalg.norm(ref.field.values)
    assert ref.factorizations == ref.iterations and ref.two_grid_cycles == 0
    assert rep.factorizations == rep.iterations - fine and rep.two_grid_cycles >= fine


def test_two_grid_keeps_the_dirichlet_boundary_at_zero(params):
    mesh = tb.build_mesh(32)
    rep = tb.solve_p1_newton(mesh, params, p1_case(mesh, 2.5, 0.3)[1])
    assert rep.two_grid_cycles > 0
    assert np.all(rep.field.values[mesh.boundary_nodes] == 0.0)


def test_missed_cycle_target_falls_back_to_the_factor(params, monkeypatch, splu_sizes):
    """One cycle cannot reach the target, so each fine step factors as the direct path does."""
    mesh = tb.build_mesh(32)
    solve, prob = p2_case(mesh, 0.2)
    ref = direct(monkeypatch, solve, mesh, params, prob)
    splu_sizes.clear()
    monkeypatch.setattr(solvers, "_TWO_GRID_MAX_CYCLES", 1)
    rep = solve(mesh, params, prob)
    fine = len(rep.trace) - 1
    assert splu_sizes.count(mesh.n_nodes) == fine >= 1
    assert rep.factorizations == rep.iterations == ref.iterations
    assert rep.two_grid_cycles == fine
    assert np.array_equal(rep.field.values, ref.field.values)


def test_a_level_below_without_a_factor_leaves_the_fine_level_direct(params, monkeypatch):
    """With no factor from the level below, the finest level factors as the direct path does."""
    mesh = tb.build_mesh(32)
    solve, prob = p2_case(mesh, 0.2)
    ref = direct(monkeypatch, solve, mesh, params, prob)
    real_loop = solvers._newton_loop

    def loop_without_factor(*args, **kwargs):
        return real_loop(*args, **kwargs)[:4] + (None,)

    monkeypatch.setattr(solvers, "_newton_loop", loop_without_factor)
    rep = solve(mesh, params, prob)
    assert rep.two_grid_cycles == 0
    assert rep.factorizations == rep.iterations == ref.iterations
    assert np.array_equal(rep.field.values, ref.field.values)
