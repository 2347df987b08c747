import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusbvp as tb
from torusbvp.functionals import reach_exponential_target
from torusbvp.mesh import TWO_PI, _triangle_geometry
from oracles import SmoothFieldBasis


def _vol_h(mesh, params):
    return float(tb.assemble(mesh, params).volume_mass.sum())


def test_functional_I_p1_examples(params, mesh32):
    f1 = tb.DiskField.constant(mesh32, 1.0)
    zero = tb.DiskField.constant(mesh32, 0.0)
    prob = tb.ProblemP1(1.0, f1)
    assert tb.functional_I_p1(mesh32, params, zero, prob) == 0.0
    field = tb.DiskField.from_function(mesh32, SmoothFieldBasis(2))
    prob_g0 = tb.ProblemP1(0.0, f1)
    assert tb.functional_I_p1(mesh32, params, field, prob_g0) == pytest.approx(
        tb.dirichlet_energy(mesh32, params, field), rel=1e-14)
    ft = tb.DiskField.from_function(mesh32, lambda t, s: t)
    assert tb.functional_I_p1(mesh32, params, ft, prob) == pytest.approx(5 * math.pi**2, rel=0.01)


def test_constraint_A_p1_examples(params, mesh32):
    gamma = 1.0
    zero = tb.DiskField.constant(mesh32, 0.0)
    assert tb.constraint_A_p1(mesh32, params, zero, tb.ProblemP1(gamma, tb.DiskField.constant(mesh32, gamma))) == 0.0
    val = tb.constraint_A_p1(mesh32, params, zero, tb.ProblemP1(1.0, tb.DiskField.constant(mesh32, 0.0)))
    assert val == pytest.approx(-_vol_h(mesh32, params), rel=1e-14)
    ln2 = tb.DiskField.constant(mesh32, -math.log(2.0))
    val = tb.constraint_A_p1(mesh32, params, ln2, tb.ProblemP1(1.0, tb.DiskField.constant(mesh32, 2.0)))
    assert abs(val) <= 1e-12 * _vol_h(mesh32, params)


def test_functional_I_p2_examples(params, mesh32):
    zero = tb.DiskField.constant(mesh32, 0.0)
    f0 = tb.DiskField.constant(mesh32, 0.0)
    prob = tb.ProblemP2(1.0, 0.0, f0, f0)
    assert tb.functional_I_p2(mesh32, params, zero, prob) == 0.0
    field = tb.DiskField.from_function(mesh32, SmoothFieldBasis(4))
    prob00 = tb.ProblemP2(0.0, 0.0, f0, f0)
    assert tb.functional_I_p2(mesh32, params, field, prob00) == pytest.approx(
        0.5 * tb.dirichlet_energy(mesh32, params, field), rel=1e-14)
    ft = tb.DiskField.from_function(mesh32, lambda t, s: t)
    assert tb.functional_I_p2(mesh32, params, ft, prob) == pytest.approx(2.5 * math.pi**2, rel=0.01)


def test_constraint_K_examples(params, mesh32):
    zero = tb.DiskField.constant(mesh32, 0.0)
    one = tb.DiskField.constant(mesh32, 1.0)
    f0 = tb.DiskField.constant(mesh32, 0.0)
    k = tb.constraint_K(mesh32, params, zero, tb.ProblemP2(1.0, 0.0, tb.DiskField.constant(mesh32, -1.0), f0))
    assert abs(k) <= 1e-12 * params.volume()
    field = tb.DiskField.from_function(mesh32, SmoothFieldBasis(6))
    assert tb.constraint_K(mesh32, params, field, tb.ProblemP2(0.0, 0.0, f0, f0)) == 0.0
    k = tb.constraint_K(mesh32, params, one,
                        tb.ProblemP2(0.0, 1.0, f0, tb.DiskField.constant(mesh32, -math.exp(-1.0))))
    assert abs(k) <= 1e-10 * params.boundary_area()


def test_problem_R(params, mesh16):
    f0 = tb.DiskField.constant(mesh16, 0.0)
    prob = tb.ProblemP2(0.5, -0.25, f0, f0)
    assert prob.R(params) == pytest.approx(0.5 * params.volume() - 0.25 * params.boundary_area(), rel=1e-15)


def test_identity_614_examples(params, mesh32):
    zero = tb.DiskField.constant(mesh32, 0.0)
    f0 = tb.DiskField.constant(mesh32, 0.0)
    # exact constant solution of the a=1, f=-1 problem: every term pairs off
    prob = tb.ProblemP2(1.0, 0.0, tb.DiskField.constant(mesh32, -1.0), f0)
    assert abs(tb.identity_6_14_residual(mesh32, params, zero, prob)) <= 1e-12 * params.volume()
    # non-solution: plain substitution leaves int(f)
    prob2 = tb.ProblemP2(0.0, 0.0, tb.DiskField.constant(mesh32, 1.0), f0)
    assert tb.identity_6_14_residual(mesh32, params, zero, prob2) == pytest.approx(
        _vol_h(mesh32, params), rel=1e-14)


def test_identity_614_on_converged_solution(params, mesh16):
    f = tb.DiskField.from_function(mesh16, lambda t, s: -(0.8 + 0.2 * t))
    prob = tb.ProblemP2(0.7, 0.0, f, tb.DiskField.constant(mesh16, 0.0))
    rep = tb.solve_p2_newton(mesh16, params, prob)
    res = tb.identity_6_14_residual(mesh16, params, rep.field, prob)
    emv = np.exp(-rep.field.values)
    scale = (abs(prob.a) * params.volume() * emv.max() + abs(float(
        tb.assemble(mesh16, params).volume_mass @ f.values)) + 1.0)
    assert abs(res) <= 10 * mesh16.h**2 * scale


def test_mean_value(params, mesh32):
    c = tb.DiskField.constant(mesh32, 2.5)
    assert tb.mean_value(mesh32, params, c) == pytest.approx(2.5, abs=1e-12)
    ft = tb.DiskField.from_function(mesh32, lambda t, s: t)
    assert tb.mean_value(mesh32, params, ft) == pytest.approx(0.125, rel=0.01)
    fs = tb.DiskField.from_function(mesh32, lambda t, s: s)
    assert abs(tb.mean_value(mesh32, params, fs)) <= 1e-10


def test_mean_shift_normalization(params, mesh16):
    field = tb.DiskField.from_function(mesh16, SmoothFieldBasis(8))
    shifted = tb.DiskField(mesh16, field.values - tb.mean_value(mesh16, params, field))
    assert abs(tb.mean_value(mesh16, params, shifted)) <= 1e-12


@settings(max_examples=40, derandomize=True)
@given(c=st.floats(-3.0, 3.0))
def test_exponential_shift_scaling(c):
    params = tb.TorusParams(2.0, 1.0)
    mesh = tb.build_mesh(8)
    ops = tb.assemble(mesh, params)
    f = tb.DiskField.from_function(mesh, lambda t, s: t - 0.2).values
    g = tb.DiskField.from_function(mesh, lambda t, s: s + 0.1).values
    v = tb.DiskField.from_function(mesh, SmoothFieldBasis(1)).values
    base = float(ops.volume_mass @ (f * np.exp(v))) + float(ops.boundary_mass @ (g * np.exp(v)))
    shifted = float(ops.volume_mass @ (f * np.exp(v + c))) + float(ops.boundary_mass @ (g * np.exp(v + c)))
    assert shifted == pytest.approx(math.exp(c) * base, rel=1e-12)


def test_functional_refinement_invariance(params):
    vals = []
    basis = SmoothFieldBasis(12)
    for n in (16, 32, 64):
        m = tb.build_mesh(n)
        field = tb.DiskField.from_function(m, basis)
        prob = tb.ProblemP1(1.0, tb.DiskField.constant(m, 1.0))
        vals.append(tb.functional_I_p1(m, params, field, prob))
    assert abs(vals[1] - vals[2]) <= 0.3 * abs(vals[0] - vals[1])


def test_exp_capped():
    assert tb.exp_capped(0.0) == 1.0
    with pytest.raises(OverflowError):
        tb.exp_capped(701.0)
    with pytest.raises(OverflowError):
        tb.exp_capped(np.array([0.0, 800.0]))


def feasible_point(mesh, p, prob):
    """A point of {K = 0} for a = b = 0 data: zero moved by the density shift to the target 0."""
    ops = tb.assemble(mesh, p)
    _, w = prob.terms(ops)
    masses = ops.volume_mass + ops.boundary_mass
    return tb.DiskField(mesh, reach_exponential_target(w, masses, np.zeros(mesh.n_nodes), 0.0))


def test_construct_feasible_volume_case(params, mesh16):
    f = tb.DiskField.from_function(mesh16, lambda t, s: t + 0.3)
    g = tb.DiskField.constant(mesh16, 0.0)
    prob = tb.ProblemP2(0.0, 0.0, f, g)
    field = feasible_point(mesh16, params, prob)
    ops = tb.assemble(mesh16, params)
    tol = 1e-8 * (abs(float(ops.volume_mass @ f.values)) + 1.0)
    assert abs(tb.constraint_K(mesh16, params, field, prob)) <= tol


def test_construct_feasible_boundary_case(params, mesh16):
    f = tb.DiskField.constant(mesh16, 0.0)
    g = tb.DiskField.from_function(mesh16, lambda t, s: t + 0.8)
    prob = tb.ProblemP2(0.0, 0.0, f, g)
    field = feasible_point(mesh16, params, prob)
    ops = tb.assemble(mesh16, params)
    tol = 1e-8 * (abs(float(ops.boundary_mass @ g.values)) + 1.0)
    assert abs(tb.constraint_K(mesh16, params, field, prob)) <= tol


@pytest.mark.parametrize("fn_f, fn_g", [
    (lambda t, s: t + 0.55, lambda t, s: 0.0 * t),
    (lambda t, s: 0.0 * t, lambda t, s: t + 0.8),
    (lambda t, s: 0.3 - t, lambda t, s: 0.0 * t),
    (lambda t, s: t + 0.5, lambda t, s: t + 0.5),
], ids=["f=t+0.55", "g=t+0.8", "f=0.3-t", "f=g=t+0.5"])
def test_construct_feasible_reaches_roundoff(params, mesh16, fn_f, fn_g):
    """The density shift puts K at the roundoff of its own terms."""
    f = tb.DiskField.from_function(mesh16, fn_f)
    g = tb.DiskField.from_function(mesh16, fn_g)
    prob = tb.ProblemP2(0.0, 0.0, f, g)
    field = feasible_point(mesh16, params, prob)
    ops = tb.assemble(mesh16, params)
    ev = np.exp(field.values)
    scale = float(ops.volume_mass @ (np.abs(f.values) * ev)) + float(ops.boundary_mass @ (np.abs(g.values) * ev))
    assert abs(tb.constraint_K(mesh16, params, field, prob)) <= 8.0 * np.finfo(float).eps * scale


def test_construct_feasible_rejects(params, mesh16):
    """Data of one sign have no point of {K = 0}, a = b = 0."""
    one = tb.DiskField.constant(mesh16, 1.0)
    with pytest.raises(tb.InfeasibleError):
        feasible_point(mesh16, params, tb.ProblemP2(0.0, 0.0, one, one))
    neg = tb.DiskField.constant(mesh16, -1.0)
    with pytest.raises(tb.InfeasibleError):
        feasible_point(mesh16, params, tb.ProblemP2(0.0, 0.0, neg, tb.DiskField.constant(mesh16, 0.0)))


def grad_energy_one_pass(mesh, p, field):
    """``grad_energy_weighted`` as one pass over every triangle at once: the reference of the blocked sum."""
    areas, gx, gy, t_cent = _triangle_geometry(mesh)
    v = field.values
    vt = v[mesh.triangles.T]
    dx, dy = gx[0] * vt[0] + gx[1] * vt[1] + gx[2] * vt[2], gy[0] * vt[0] + gy[1] * vt[1] + gy[2] * vt[2]
    weights = np.exp(-v[mesh.triangles].mean(axis=1))
    return float(TWO_PI * np.sum(areas * (p.l + p.r * t_cent) * ((dx * dx + dy * dy) * weights)))


@pytest.mark.parametrize("n_rings", [8, 33, 64, 128])
def test_grad_energy_weighted_sums_its_blocks_as_one_pass_bit_for_bit(params, n_rings):
    """The ring blocks write the one-pass integrand, which is summed once: the same bits, one block or eight."""
    mesh = tb.build_mesh(n_rings)
    field = tb.DiskField.from_function(mesh, lambda t, s: np.sin(t + 2.0 * s) + 0.3 * t * t)
    assert tb.grad_energy_weighted(mesh, params, field) == grad_energy_one_pass(mesh, params, field)


def test_grad_energy_weighted_traces_one_ring_block(params):
    """At 128 rings the gradient term traces at most 2.5 MiB, where one pass over the mesh traced 12.75 MiB.

    Its vector of a value per triangle takes 0.75 MiB; the rest is one
    block's geometry and integrand, about an eighth of the mesh's.
    """
    mesh = tb.build_mesh(128)
    field = tb.DiskField.from_function(mesh, lambda t, s: np.sin(t + 2.0 * s))
    small = tb.build_mesh(4)
    tb.grad_energy_weighted(small, params, tb.DiskField.constant(small, 0.0))  # first calls allocate lazily
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tb.grad_energy_weighted(mesh, params, field)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, peak / 2**20


def test_grad_energy_weighted_reads_every_triangle_of_a_mesh(params):
    """Triangles past the last walk of a mesh's ring count, here every triangle listed twice, all enter the sum."""
    m = tb.build_mesh(8)
    twice = tb.DiskMesh(m.nodes, np.concatenate([m.triangles, m.triangles]), 8)
    field = tb.DiskField.from_function(twice, lambda t, s: np.sin(t + 2.0 * s))
    assert tb.grad_energy_weighted(twice, params, field) == grad_energy_one_pass(twice, params, field)
