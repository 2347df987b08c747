"""Nested Newton levels of 16 rings or more solve by V-cycles, not by a factor.

From ``_TWO_GRID_MIN_RINGS`` rings on, each Newton system of a nested level
is solved by damped Jacobi sweeps around a coarse correction, to a tenth of
Newton's tolerance.  The coarse correction is one cycle on the Jacobian of
the level below, frozen at its solution, down to the last factor of the
finest level under the threshold.  Raising the threshold above the mesh puts
a solve back on the direct path, which must take the same steps to the same
field.
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


def factored_levels(params, case, n):
    """The nested solve of ``case`` on the finest mesh under the threshold: the levels that factor."""
    while n >= solvers._TWO_GRID_MIN_RINGS:
        n //= 2
    mesh = tb.build_mesh(n)
    solve, prob = CASES[case](mesh)
    return solve(mesh, params, prob)


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
    # every step of the levels under the threshold factors, and no other step
    below = factored_levels(params, case, n)
    assert rep.factorizations == below.iterations == below.factorizations
    assert rep.two_grid_cycles >= rep.iterations - below.iterations >= fine


@pytest.mark.parametrize("case", ["p1 gamma=1.5 c=0.3", "p2 c=0.2"])
def test_only_meshes_under_the_threshold_are_factored(params, splu_sizes, case):
    mesh = tb.build_mesh(64)
    solve, prob = CASES[case](mesh)
    rep = solve(mesh, params, prob)
    p1 = isinstance(prob, tb.ProblemP1)
    sizes = {n: (level.interior_nodes().size if p1 else level.n_nodes)
             for n, level in ((n, tb.build_mesh(n)) for n in (2, 4, 8, 16, 32, 64))}
    assert splu_sizes and len(splu_sizes) == rep.factorizations
    assert set(splu_sizes) <= {size for n, size in sizes.items() if n < solvers._TWO_GRID_MIN_RINGS}
    assert rep.two_grid_cycles > 0


def test_two_grid_keeps_the_dirichlet_boundary_at_zero(params):
    mesh = tb.build_mesh(32)
    rep = tb.solve_p1_newton(mesh, params, p1_case(mesh, 2.5, 0.3)[1])
    assert rep.two_grid_cycles > 0
    assert np.all(rep.field.values[mesh.boundary_nodes] == 0.0)


def test_missed_cycle_target_falls_back_to_the_factor(params, monkeypatch, splu_sizes):
    """One cycle cannot reach the target, so each cycled step factors as the direct path does."""
    mesh = tb.build_mesh(32)
    solve, prob = p2_case(mesh, 0.2)
    ref = direct(monkeypatch, solve, mesh, params, prob)
    below = factored_levels(params, "p2 c=0.2", 32)
    splu_sizes.clear()
    monkeypatch.setattr(solvers, "_TWO_GRID_MAX_CYCLES", 1)
    rep = solve(mesh, params, prob)
    fine = len(rep.trace) - 1
    cycled = rep.iterations - below.iterations  # the steps at 16 and 32 rings
    assert splu_sizes.count(mesh.n_nodes) == fine >= 1
    assert splu_sizes.count(tb.build_mesh(16).n_nodes) == cycled - fine >= 1
    assert rep.factorizations == rep.iterations == ref.iterations
    assert rep.two_grid_cycles == cycled
    assert np.array_equal(rep.field.values, ref.field.values)


def test_a_level_below_without_a_factor_leaves_the_fine_level_direct(params, monkeypatch):
    """With no factor from the levels under the threshold, every level above factors as the direct path does."""
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


def test_a_failed_coarse_level_leaves_the_level_above_direct(params, monkeypatch, splu_sizes):
    """A level that fails hands zero and no coarse solve up; the level above factors, the next cycles."""
    mesh = tb.build_mesh(64)
    solve, prob = p2_case(mesh, 0.2)
    real_loop = solvers._newton_loop
    failing = tb.build_mesh(16).n_nodes

    def loop_failing_at_16_rings(eq, *args, **kwargs):
        if eq[0].shape[0] == failing:
            raise tb.NonConvergence("forced")
        return real_loop(eq, *args, **kwargs)

    monkeypatch.setattr(solvers, "_newton_loop", loop_failing_at_16_rings)
    rep = solve(mesh, params, prob)
    fine = len(rep.trace) - 1
    factored_32 = splu_sizes.count(tb.build_mesh(32).n_nodes)
    assert factored_32 >= 1 and failing not in splu_sizes and mesh.n_nodes not in splu_sizes
    assert rep.two_grid_cycles >= fine >= 1
    ref = solve(mesh, params, prob, init=tb.DiskField.constant(mesh, 0.0))
    assert np.linalg.norm(rep.field.values - ref.field.values) <= 1e-9 * np.linalg.norm(ref.field.values)
