"""Nested Newton levels of 16 rings or more solve by V-cycles, not by a factor.

From ``_TWO_GRID_MIN_RINGS`` rings on, each Newton system of a nested level
is solved by conjugate gradients preconditioned with one cycle per
iteration, to a tenth of the level's Newton tolerance.  A cycle is damped
Jacobi sweeps around a coarse correction, which is one cycle on the Jacobian
of the level below at its solution, down to the last factor of the finest
level under the threshold.  A cycled step applies its Jacobian as an
operator on the record (``solvers._Jacobian``): it builds no matrix, and
the cycle a level hands up holds that level's shift ``w e^v``, not a copy of
the stiffness.  A cycled solve that returns no step puts
every step back on the factor, the direct path, which must take the same
steps to the same field.  Below the finest, a level of
``_TWO_GRID_MIN_RINGS`` rings or more stops at 1e-3 of its start's residual
on either path.  The Jacobian, the
cycle's diagonal and the relaxation of a nested start read the stiffness of
each mesh as it was built once, never a slice or a sum of it: a Dirichlet
record pins its trailing boundary rows (``solvers._equation``), and on its
unknowns, the leading ``k`` rows, each of these has the bits of the leading
block.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import torusbvp as tb
from torusbvp import solvers
from torusbvp.mesh import coarse_mesh


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
        patch.setattr(solvers, "_cycled_solve", lambda *args: (None, 0))
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
    sizes = {n: (level.n_interior if p1 else level.n_nodes)
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
        return real_loop(*args, **kwargs)[:3] + (None,)

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
        if eq[4] == failing:
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


@pytest.mark.parametrize("case", ["p1 gamma=1.5 c=0.3", "p2 c=0.2"])
def test_an_odd_ring_count_nests(params, newton_levels, case):
    """33 rings solve on 2, 4, 8 and 16 rings first, and land on the single-level field from zero.

    Each field meets its residual stop; to second order it lies its Newton
    correction ``J^-1 F`` from the discrete solution, so the two fields
    differ by at most twice the sum of those corrections, taken with ``J``
    at the field from zero, plus the roundoff of the fields themselves.
    """
    mesh = tb.build_mesh(33)
    solve, prob = CASES[case](mesh)
    p1 = isinstance(prob, tb.ProblemP1)
    nested = solve(mesh, params, prob)
    assert [level[0] for level in newton_levels] == [unknowns(n, p1) for n in (2, 4, 8, 16, 33)]
    assert nested.two_grid_cycles >= len(nested.trace) - 1 >= 1
    single = solve(mesh, params, prob, init=tb.DiskField.constant(mesh, 0.0))
    assert len(newton_levels) == 6 and single.two_grid_cycles == 0
    eq = solvers._equation(mesh, params, prob.as_p2() if p1 else prob, p1)
    k = eq[4]
    lu = splu(sp.csc_matrix(solvers._shifted(eq, solvers._exp_terms(eq, single.field.values))[:k, :k]))
    for rep, (_, residuals, tol) in ((nested, newton_levels[4]), (single, newton_levels[5])):
        assert residuals[-1] <= tol
    corrections = [np.max(np.abs(lu.solve(solvers._residual(eq, rep.field.values)[:k]))) for rep in (nested, single)]
    gap = np.max(np.abs(nested.field.values - single.field.values))
    assert gap <= 2.0 * sum(corrections) + 64 * np.finfo(float).eps * np.max(np.abs(single.field.values))


def test_an_odd_ring_count_builds_its_data_restriction_once(params, monkeypatch):
    """The second solve on a 33-ring mesh builds no ring interpolation: the data restriction is cached with its level."""
    built = []

    def spy(n_to, n_from):
        built.append((n_to, n_from))
        return real(n_to, n_from)

    real = tb.mesh.ring_interpolation
    monkeypatch.setattr(tb.mesh, "ring_interpolation", spy)
    mesh = tb.build_mesh(33)
    solve, prob = p2_case(mesh, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tb.ExistenceWindowWarning)  # R is outside the window at l, r = 2, 1
        first = solve(mesh, params, prob)
        assert (16, 33) in built
        built.clear()
        second = solve(mesh, params, prob)
    assert built == []
    assert np.array_equal(first.field.values, second.field.values)


def test_interior_g_moves_no_level_of_an_odd_ring_count(params):
    """Raising ``g`` by 1e3 at the interior nodes, where no equation reads it, leaves a 33-ring solve as it was.

    Under an odd ring count the sampling rows of coarse boundary nodes
    weight fine interior nodes, so each coarse level takes ``g``'s boundary
    trace alone: the same counts, and the same field bit for bit.
    """
    mesh = tb.build_mesh(33)
    solve, prob = p2_case(mesh, 0.1)
    bump = np.where(np.arange(mesh.n_nodes) < mesh.n_interior, 1e3, 0.0)
    bumped = tb.ProblemP2(prob.a, prob.b, prob.f, tb.DiskField(mesh, prob.g.values + bump))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tb.ExistenceWindowWarning)  # R is outside the window at l, r = 2, 1
        plain, raised = (solve(mesh, params, q) for q in (prob, bumped))
    assert [(r.iterations, r.factorizations, r.two_grid_cycles) for r in (plain, raised)] == [(13, 10, 16)] * 2
    assert np.array_equal(plain.field.values, raised.field.values)


def unknowns(n, p1):
    mesh = tb.build_mesh(n)
    return mesh.n_interior if p1 else mesh.n_nodes


@pytest.mark.parametrize("path", ["cycled", "direct"])
@pytest.mark.parametrize("case", ["p1 gamma=1.5 c=0.3", "p2 c=0.2"])
def test_coarse_levels_from_16_rings_stop_early(params, monkeypatch, newton_levels, case, path):
    """Below the finest, 16 and 32 rings stop at 1e-3 of their start's residual; the rest at Newton's tolerance."""
    mesh = tb.build_mesh(64)
    solve, prob = CASES[case](mesh)
    if path == "direct":
        monkeypatch.setattr(solvers, "_cycled_solve", lambda *args: (None, 0))
    solve(mesh, params, prob)
    rings = [2, 4, 8, 16, 32, 64]
    p1 = isinstance(prob, tb.ProblemP1)
    assert [level[0] for level in newton_levels] == [unknowns(n, p1) for n in rings]
    for n, (_, residuals, tol) in zip(rings, newton_levels):
        start, stop = residuals[0], residuals[-1]
        assert len(residuals) >= 2
        if n in (16, 32):
            assert tol < 1e-3 * start < residuals[-2] and stop <= 1e-3 * start
        else:
            assert stop <= tol < residuals[-2]


@pytest.mark.parametrize("n", [16, 32, 64])
def test_the_cycle_is_symmetric(params, monkeypatch, n):
    """``u' B v = v' B u`` to roundoff for every cycle ``B`` that preconditions conjugate gradients.

    ``u`` and ``v`` are random on the system's unknowns, the entries that its
    weights cover, and zero on a Dirichlet level's pinned boundary, where
    ``B`` maps them to zero.
    """
    real_solve, cycles = solvers._cycled_solve, []

    def spy(J, rhs, cycle, weights, *args):
        cycles.append((rhs.size, weights.size, cycle))
        return real_solve(J, rhs, cycle, weights, *args)

    monkeypatch.setattr(solvers, "_cycled_solve", spy)
    mesh = tb.build_mesh(n)
    for case in ("p1 gamma=1.5 c=0.3", "p2 c=0.2"):
        solve, prob = CASES[case](mesh)
        solve(mesh, params, prob)
    assert cycles
    rng = np.random.default_rng(n)
    assert {size > k for size, k, _ in cycles} == {False, True}
    for size, k, cycle in cycles:
        u, v = np.zeros(size), np.zeros(size)
        u[:k], v[:k] = rng.normal(size=k), rng.normal(size=k)
        Bu, Bv = cycle(u), cycle(v)
        assert not np.any(Bu[k:]) and not np.any(Bv[k:])
        assert abs(np.sum(u * Bv) - np.sum(v * Bu)) <= 2e-15 * np.linalg.norm(u) * np.linalg.norm(Bv)


def test_the_finest_level_hands_up_no_cycle(params, monkeypatch):
    """The finest level builds a cycle for each of its Newton steps and none on its solution: nothing reads it."""
    real_cycle, sizes = solvers._cycle, []

    def spy(J, *args):
        sizes.append(J.shift.size)
        return real_cycle(J, *args)

    monkeypatch.setattr(solvers, "_cycle", spy)
    mesh = tb.build_mesh(32)
    solve, prob = p2_case(mesh, 0.2)
    rep = solve(mesh, params, prob)
    assert sizes.count(mesh.n_nodes) == len(rep.trace) - 1 >= 1
    assert sizes.count(coarse_mesh(mesh)[0].n_nodes) >= 1


@pytest.mark.parametrize("case", ["p1 gamma=1.5 c=0.3", "p2 c=0.2"])
def test_only_a_factor_builds_a_matrix(params, monkeypatch, case):
    """``_shifted`` runs once per counted factor: a cycled step, and the cycle a level hands up, build no matrix."""
    real_shifted, built = solvers._shifted, []

    def spy(eq, diagonal):
        built.append(diagonal.size)
        return real_shifted(eq, diagonal)

    monkeypatch.setattr(solvers, "_shifted", spy)
    mesh = tb.build_mesh(32)
    solve, prob = CASES[case](mesh)
    rep = solve(mesh, params, prob)
    assert rep.two_grid_cycles > 0 and len(built) == rep.factorizations
    assert max(built) < tb.build_mesh(solvers._TWO_GRID_MIN_RINGS).n_nodes


def test_a_warm_p1_solve_peaks_below_twenty_vectors(params):
    """A warm 64-ring P1 solve on the benchmark's ``newton`` data peaks below 20 float64 vectors of its nodes.

    The caches hold the hierarchy's operators, so the peak is the solve's
    own: the finest level's record, field and residual, its Jacobian
    operator's shift and Jacobi weights, the vectors of conjugate gradients
    and of one cycle.  A copy of the stiffness's data per step, seven
    vectors, would break it.
    """
    mesh = tb.build_mesh(64)
    prob = tb.ProblemP1(1.5, tb.DiskField(mesh, 1.0 + 0.1 * mesh.nodes[:, 0]))
    tb.solve_p1_newton(mesh, params, prob)  # fills the caches
    tracemalloc.start()
    try:
        rep = tb.solve_p1_newton(mesh, params, prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.two_grid_cycles > 0
    assert peak < 20 * mesh.n_nodes * 8


@pytest.mark.parametrize("broken", [np.zeros_like, lambda r: np.full_like(r, np.nan)], ids=["zero", "nan"])
def test_a_conjugate_gradient_breakdown_falls_back_to_the_factor(params, monkeypatch, broken):
    """A cycle giving zero or non-finite curvature ends each cycled solve at once, and the step factors."""
    mesh = tb.build_mesh(32)
    solve, prob = p2_case(mesh, 0.2)
    ref = direct(monkeypatch, solve, mesh, params, prob)
    below = factored_levels(params, "p2 c=0.2", 32)
    monkeypatch.setattr(solvers, "_cycle", lambda *args: broken)
    rep = solve(mesh, params, prob)
    assert rep.factorizations == rep.iterations == ref.iterations
    assert rep.two_grid_cycles == rep.iterations - below.iterations >= 1
    assert np.array_equal(rep.field.values, ref.field.values)


def test_a_negative_curvature_goes_on():
    """On an indefinite operator conjugate gradients carry on past ``d' J d < 0``; the exact inverse takes one step.

    ``J = diag(2, -1, 3)``, a diagonal "stiffness" plus the shift ``(0.5, 1, 0.5)``.
    """
    S, shift = sp.diags([1.5, -2.0, 2.5]).tocsr(), np.array([0.5, 1.0, 0.5])
    J = solvers._Jacobian(solvers.Record(S, None, None, np.arange(3), 3), shift)
    diagonal = np.array([2.0, -1.0, 3.0])
    rhs = np.array([1.0, 2.0, 0.5])
    x, iterations = solvers._cycled_solve(J, rhs, lambda r: r / diagonal, np.ones(3), 1e-12)
    assert iterations == 1 and np.allclose(x, rhs / diagonal, rtol=1e-15)


@pytest.mark.parametrize("dirichlet", [True, False], ids=["dirichlet", "neumann"])
def test_jacobian_adds_onto_the_stored_diagonal(params, dirichlet):
    """``_shifted`` is ``(S + diag(d)).tocsr()`` bit for bit on the unknowns, on the stiffness built once per mesh.

    ``d`` is Newton's ``w e^v`` and the descent's residual weights, at 8 to
    64 rings.  The reference is the leading block ``[:k, :k]``, sliced
    here; a Dirichlet record's pinned rows ``k:`` are unit rows.
    """
    for n in (8, 16, 32, 64):
        mesh = tb.build_mesh(n)
        prob = p1_case(mesh, 1.5, 0.3)[1].as_p2() if dirichlet else p2_case(mesh, 0.2)[1]
        eq = solvers._equation(mesh, params, prob, dirichlet)
        assert solvers._equation(mesh, params, prob, dirichlet)[0] is eq[0]
        k = eq[4]
        assert k == (mesh.n_interior if dirichlet else mesh.n_nodes)
        v = np.random.default_rng(n).normal(size=mesh.n_nodes)
        ops = tb.assemble(mesh, params)
        weights = ops.volume_mass if dirichlet else ops.volume_mass + ops.boundary_mass
        for diagonal in (solvers._exp_terms(eq, v), weights):
            J = solvers._shifted(eq, diagonal)
            ref = (eq[0][:k, :k] + sp.diags(diagonal[:k])).tocsr()
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(J[:k, :k], part), getattr(ref, part))
            assert np.array_equal(J.data[eq[3][:k]], ref.diagonal())
            assert (J[k:] != sp.eye(mesh.n_nodes, format="csr")[k:]).nnz == 0


def sliced_relaxation(eq, v0, new, weights):
    """The relaxation of a nested start on ``S``'s rows at the new nodes, sliced out: the reference."""
    S, c, w = eq[:3]
    stiffness, diag, c, w = S[new], S.diagonal()[new], c[new], w[new]
    v = v0.copy()
    for _ in range(solvers._RELAX_SWEEPS):
        wev = w * np.exp(v[new])
        v[new] -= (stiffness @ v + c + wev) / (diag + wev)
    before = solvers._weighted_norm(solvers._residual(eq, v0), weights)
    return v if solvers._weighted_norm(solvers._residual(eq, v), weights) < before else v0


@pytest.mark.filterwarnings("ignore::torusbvp.errors.ExistenceWindowWarning")
def test_every_level_caches_its_operators_and_its_link(params):
    """After nested P1 and P2 solves each level holds just its link and its operators; ``prolong`` reads the link's P."""
    mesh = tb.build_mesh(32)
    for solve, prob in (p1_case(mesh, 1.5, 0.1), p2_case(mesh, 0.1)):
        solve(mesh, params, prob)
    layout = {"coarse", ("ops", 2.0, 1.0)}
    level, rings = (mesh,), []
    while level is not None:
        assert set(level[0]._cache) == layout, level[0].n_rings
        rings.append(level[0].n_rings)
        level = coarse_mesh(level[0])
    assert rings == [32, 16, 8, 4, 2]

    class Spy:
        def __matmul__(self, values):
            return "read"

    coarse, sampling, _ = coarse_mesh(mesh)
    mesh._cache["coarse"] = (coarse, sampling, Spy())
    assert tb.mesh.prolong(np.zeros(coarse.n_nodes), mesh) == "read"


@pytest.mark.filterwarnings("ignore::torusbvp.errors.ExistenceWindowWarning")
def test_a_p1_solve_after_a_p2_solve_caches_nothing(params):
    """A Dirichlet level reads only what a Neumann level cached: P1 after P2 adds no key, and replaces no entry."""
    mesh = tb.build_mesh(32)
    solve, prob = p2_case(mesh, 0.1)
    solve(mesh, params, prob)
    levels, level = [], (mesh,)
    while level is not None:
        levels.append((level[0], dict(level[0]._cache)))
        level = coarse_mesh(level[0])
    solve, prob = p1_case(mesh, 1.5, 0.1)
    assert solve(mesh, params, prob).two_grid_cycles > 0
    for level_mesh, before in levels:
        assert level_mesh._cache.keys() == before.keys(), level_mesh.n_rings
        assert all(level_mesh._cache[key] is entry for key, entry in before.items()), level_mesh.n_rings


@pytest.mark.parametrize("case", ["p1 gamma=1.5 c=0.3", "p2 c=0.2"])
def test_relaxed_start_equals_the_sliced_rows(params, case):
    mesh = tb.build_mesh(32)
    coarse = coarse_mesh(mesh)[0]
    solve, prob = CASES[case](mesh)
    half = solve(coarse, params, CASES[case](coarse)[1])
    p1 = isinstance(prob, tb.ProblemP1)
    eq = solvers._equation(mesh, params, prob.as_p2() if p1 else prob, p1)
    ops = tb.assemble(mesh, params)
    k = eq[4]
    new = np.flatnonzero(np.diff(coarse_mesh(mesh)[2].indptr)[:k] > 1)  # all but the single-weight rows
    weights = (ops.volume_mass + ops.boundary_mass)[:k]
    v0 = solvers._fmg_start(mesh, half.field.values, None)
    v0[k:] = 0.0  # a Dirichlet start's pinned boundary
    relaxed = solvers._relax_new_nodes(eq, v0, new, weights)
    assert not np.array_equal(relaxed, v0) and not np.any(relaxed[k:])
    assert np.array_equal(relaxed, sliced_relaxation(eq, v0, new, weights))
