import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

import torusbvp as tb
from torusbvp.mesh import TWO_PI, _assemble_core, _ring_layout, _triangle_geometry, coarse_mesh, ring_interpolation
from oracles import (
    SmoothFieldBasis,
    fit_order,
    gauss_boundary_weighted,
    gauss_disk_weighted,
    inscribed_polygon_area,
    integrate_boundary,
    mirror_permutation,
)


def test_build_mesh_counts_and_rejects():
    m = tb.build_mesh(2)
    assert m.n_nodes == 19
    assert len(m.boundary_nodes) == 12
    assert m.triangles.shape[0] == 24
    assert m.h == 0.5
    with pytest.raises(tb.DomainError):
        tb.build_mesh(1)


def test_mesh_invariants():
    m = tb.build_mesh(5)
    rr = np.sum(m.nodes**2, axis=1)
    assert np.all(rr <= 1.0 + 1e-12)
    assert np.all(np.abs(rr[m.boundary_nodes] - 1.0) <= 1e-10)
    areas = _triangle_geometry(m)[0]
    assert np.all(areas > 0.0)
    # boundary walk: consecutive nodes, counterclockwise, single loop
    ang = np.arctan2(m.nodes[m.boundary_nodes, 1], m.nodes[m.boundary_nodes, 0])
    dang = np.diff(np.unwrap(ang))
    assert np.all(dang > 0.0)
    assert np.unwrap(ang)[-1] - np.unwrap(ang)[0] == pytest.approx(2 * math.pi * (1 - 1 / len(ang)), rel=1e-12)


def build_mesh_loop(n_rings):
    """Nodes and triangles of ``build_mesh`` as a ring-by-ring loop: the reference."""
    nodes = [(0.0, 0.0)]
    ring_start = [0]
    for k in range(1, n_rings + 1):
        ring_start.append(len(nodes))
        m = 6 * k
        ang = np.arange(m) * (2.0 * math.pi / m)
        rad = k / n_rings
        nodes.extend(zip(rad * np.cos(ang), rad * np.sin(ang)))
    triangles = [(0, 1 + j, 1 + (j + 1) % 6) for j in range(6)]  # central fan
    for k in range(2, n_rings + 1):
        i0, m1 = ring_start[k - 1], 6 * (k - 1)
        o0, m2 = ring_start[k], 6 * k
        i = j = 0
        while i < m1 or j < m2:
            # advance whichever ring has the smaller next angle (exact integer compare)
            if i < m1 and (j >= m2 or (i + 1) * m2 <= (j + 1) * m1):
                triangles.append((i0 + i, o0 + j % m2, i0 + (i + 1) % m1))
                i += 1
            else:
                triangles.append((o0 + j, o0 + (j + 1) % m2, i0 + i % m1))
                j += 1
    return np.asarray(nodes), np.asarray(triangles, dtype=np.int64)


def prolongation_coo(mesh):
    """The weights of the prolongation to ``mesh`` from its half-ring mesh, summed by scipy from COO: the 2:1 reference."""
    n, n_fine = mesh.n_rings // 2, mesh.n_nodes
    ring, slot, _ = _ring_layout(2 * n)
    start = _ring_layout(n)[2]
    denom = np.maximum(ring, 1)

    def crossing(k):
        pos = slot * k
        lo, frac = pos // denom, (pos % denom) / denom
        size = np.maximum(6 * k, 1)
        half = math.pi / size
        left, right = np.sin(2.0 * half * frac), np.sin(2.0 * half * (1.0 - frac))
        with np.errstate(invalid="ignore", divide="ignore"):
            along = np.where(k > 0, left / (left + right), 0.0)
        radius = (k / n) * (np.cos(half) / np.cos((2.0 * frac - 1.0) * half))
        return radius, start[k] + lo % size, start[k] + (lo + 1) % size, along

    inner = np.minimum(ring // 2, n - 1)
    r0, a0, b0, t0 = crossing(inner)
    r1, a1, b1, t1 = crossing(inner + 1)
    w = (ring / (2 * n) - r0) / (r1 - r0)
    weights = [(1.0 - w) * (1.0 - t0), (1.0 - w) * t0, w * (1.0 - t1), w * t1]
    matrix = sp.csr_matrix((np.concatenate(weights),
                            (np.tile(np.arange(n_fine), 4), np.concatenate([a0, b0, a1, b1]))),
                           shape=(n_fine, start[-1] + 6 * n))
    matrix.eliminate_zeros()
    return matrix


def nested_index(mesh):
    """The index in ``mesh``, of an even ring count, of each node of its half-ring mesh, in closed form: the reference.

    Ring ``k``, slot ``j`` of the half-ring mesh is ring ``2k``, slot ``2j`` here.
    """
    ring, slot, _ = _ring_layout(mesh.n_rings // 2)
    return _ring_layout(mesh.n_rings)[2][2 * ring] + 2 * slot


def single_weight_rows(matrix):
    """The rows of ``matrix`` that store one weight."""
    return np.flatnonzero(np.diff(matrix.indptr) == 1)


def triangle_geometry_gathered(mesh):
    """``_triangle_geometry`` from one (3, T, 2) gather of the corners: the reference."""
    x, y = mesh.nodes[mesh.triangles.T].transpose(2, 0, 1)
    det = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    gx = np.stack([y[1] - y[2], y[2] - y[0], y[0] - y[1]]) / det
    gy = np.stack([x[2] - x[1], x[0] - x[2], x[1] - x[0]]) / det
    return 0.5 * det, gx, gy, (x[0] + x[1] + x[2]) / 3.0


def test_build_mesh_matches_the_ring_loop_bit_for_bit():
    for n in (*range(2, 65), 127, 128, 129, 256):
        m = tb.build_mesh(n)
        nodes, triangles = build_mesh_loop(n)
        assert np.array_equal(m.nodes, nodes), n
        assert np.array_equal(m.triangles, triangles), n
        assert np.array_equal(m.boundary_nodes, np.arange(nodes.shape[0] - 6 * n, nodes.shape[0])), n
        # the mesh states its ring numbering: the interior nodes are the leading n_interior
        assert m.n_rings == n and m.h == 1.0 / n, n
        assert np.array_equal(m.boundary_nodes, np.arange(m.n_interior, m.n_nodes)), n
        for part, ref in zip(_triangle_geometry(m), triangle_geometry_gathered(m)):
            assert np.array_equal(part, ref), n


def test_the_mirror_permutes_nodes_and_triangles():
    """(t, s) -> (t, -s) sends ring k's slot j to slot (-j) mod 6k, and the triangles onto the triangles.

    The torus weights depend on t alone, so the discrete problem commutes
    with this node permutation.  Every ring count from 2 to 66.
    """
    for n in range(2, 67):
        m = tb.build_mesh(n)
        mirror = mirror_permutation(n)
        assert np.max(np.abs(m.nodes[mirror] - m.nodes * [1.0, -1.0])) <= 1e-14, n
        keys = [np.sort(np.sort(tri, axis=1).astype(np.int64) @ [m.n_nodes**2, m.n_nodes, 1])
                for tri in (m.triangles, mirror[m.triangles])]  # each triangle as its sorted vertex set
        assert np.array_equal(*keys), n


@pytest.mark.parametrize("l, r", [(2.0, 1.0), (1.2, 1.0), (3.0, 0.5)])
def test_assembled_stiffness_is_the_scaled_raw_stiffness_bit_for_bit(l, r):
    """``assemble`` scales the raw stiffness in place: ``(2 pi * raw).tocsr()``, without the copy."""
    for n in (2, 7, 16, 64):
        m = tb.build_mesh(n)
        ref = (TWO_PI * _assemble_core(m, l, r)[0]).tocsr()
        stiffness = tb.assemble(m, tb.TorusParams(l, r)).stiffness
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(stiffness, attr), getattr(ref, attr)), (n, attr)


def test_a_mesh_rejects_nodes_not_of_its_rings(params):
    m = tb.build_mesh(4)
    for nodes, n_rings in ((m.nodes[:-1], 4), (m.nodes, 3), (m.nodes, 5)):
        with pytest.raises(tb.DomainError):
            tb.DiskMesh(nodes, m.triangles, n_rings)
    with pytest.raises(tb.DomainError):  # clockwise triangles have no assembly
        tb.assemble(tb.DiskMesh(m.nodes, m.triangles[:, ::-1], 4), params)


def _replaced(array, index, value, dtype=None):
    out = np.array(array, dtype=dtype)
    out[index] = value
    return out


@pytest.mark.parametrize("nodes, triangles, match", [
    (lambda m: _replaced(m.nodes, (3, 0), np.nan), lambda m: m.triangles, "finite"),
    (lambda m: _replaced(m.nodes, (5, 1), np.inf), lambda m: m.triangles, "finite"),
    (lambda m: np.hstack([m.nodes, np.zeros((m.n_nodes, 1))]), lambda m: m.triangles, "shape"),
    (lambda m: m.nodes, lambda m: _replaced(m.triangles, (2, 1), -1), r"in \[0, 61\)"),
    (lambda m: m.nodes, lambda m: _replaced(m.triangles, (7, 2), 61), r"in \[0, 61\)"),
    (lambda m: m.nodes, lambda m: m.triangles[:, :2], "shape"),
    (lambda m: m.nodes, lambda m: _replaced(m.triangles, (0, 0), 0.5, dtype=float), "integers"),
], ids=["nan_node", "inf_node", "three_coordinates", "index_minus_one", "index_n_nodes", "two_corners",
        "float_index"])
def test_a_mesh_rejects_arrays_it_cannot_assemble(nodes, triangles, match):
    """Bad nodes or triangles are refused by name, before an index is cast to int32 and could wrap."""
    m = tb.build_mesh(4)
    with pytest.raises(tb.DomainError, match=match):
        tb.DiskMesh(nodes(m), triangles(m), 4)


@pytest.mark.parametrize("build, match", [
    (lambda: tb.build_mesh(4.0), "got 4.0"),
    (lambda: tb.build_mesh(4.5), "got 4.5"),
    (lambda: tb.build_mesh("4"), "got '4'"),
    (lambda: tb.DiskMesh(np.zeros((1, 2)), np.empty((0, 3), dtype=int), 0), "got 0"),
    (lambda: tb.DiskMesh(np.zeros((1, 2)), np.empty((0, 3), dtype=int), -1), "got -1"),
    (lambda: tb.DiskMesh(tb.build_mesh(2).nodes, tb.build_mesh(2).triangles, 2.7), "got 2.7"),
], ids=["build_float", "build_fraction", "build_string", "mesh_zero", "mesh_negative", "mesh_fraction"])
def test_a_ring_count_is_an_integer_of_at_least_two(build, match):
    """Both ``build_mesh`` and ``DiskMesh`` refuse any other ring count by name, before it is cast or divided by."""
    with pytest.raises(tb.DomainError, match=match):
        build()


def test_a_numpy_integer_is_a_ring_count():
    m = tb.build_mesh(np.int64(4))
    assert type(m.n_rings) is int and m.n_rings == 4
    assert tb.DiskMesh(m.nodes, m.triangles, np.int32(4)).n_rings == 4


def test_a_mesh_without_a_half_ring_mesh_has_no_transfer(params):
    """3 rings do not halve: there is no coarse mesh to prolong from, and a Dirichlet solve there caches no transfer.

    Its one level factors every step and leaves two entries in the cache:
    the empty link and the operators.
    """
    m = tb.build_mesh(3)
    assert coarse_mesh(m) is None
    rep = tb.solve_p1_newton(m, params, tb.ProblemP1(1.5, tb.DiskField.constant(m, 1.0)))
    assert rep.two_grid_cycles == 0 and rep.factorizations == rep.iterations >= 1
    assert set(m._cache) == {"coarse", ("ops", params.l, params.r)}


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_leading_blocks_equal_the_masked_interior(params, n):
    """The leading blocks of the cached stiffness and transfer equal the node-mask restriction bit for bit.

    The boundary nodes are the trailing ones, so a Dirichlet record's
    unknowns are the leading ``n_interior`` rows and columns (sliced here)
    and its pinned rows are the boundary's.
    """
    m = tb.build_mesh(n)
    coarse = coarse_mesh(m)[0]

    def masked(mesh):
        mask = np.ones(mesh.n_nodes, dtype=bool)
        mask[mesh.boundary_nodes] = False
        return np.nonzero(mask)[0]

    free, coarse_free = masked(m), masked(coarse)
    assert np.array_equal(free, np.arange(m.n_interior)) and np.array_equal(coarse_free, np.arange(coarse.n_interior))
    S = tb.assemble(m, params).stiffness[:m.n_interior, :m.n_interior]
    P = coarse_mesh(m)[2][:m.n_interior, :coarse.n_interior]
    pairs = [(tb.assemble(m, params).stiffness[free][:, free], S), (prolongation_coo(m)[free][:, coarse_free], P)]
    for ref, block in pairs:
        assert block.shape == ref.shape
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(block, attr), getattr(ref, attr)), attr


def element_loop_stiffness(mesh, w0, w1):
    """The stiffness looped over the nine entries of each element matrix, and the (T, 3, 2) gradients: the reference."""
    tri = mesh.triangles
    p1, p2, p3 = (mesh.nodes[tri[:, k]] for k in range(3))
    det = (p2[:, 0] - p1[:, 0]) * (p3[:, 1] - p1[:, 1]) - (p3[:, 0] - p1[:, 0]) * (p2[:, 1] - p1[:, 1])
    grads = np.stack([np.stack([p2[:, 1] - p3[:, 1], p3[:, 0] - p2[:, 0]], axis=1),
                      np.stack([p3[:, 1] - p1[:, 1], p1[:, 0] - p3[:, 0]], axis=1),
                      np.stack([p1[:, 1] - p2[:, 1], p2[:, 0] - p1[:, 0]], axis=1)], axis=1) / det[:, None, None]
    weight = 0.5 * det * (w0 + w1 * (p1[:, 0] + p2[:, 0] + p3[:, 0]) / 3.0)
    rows, cols, data = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tri[:, i])
            cols.append(tri[:, j])
            data.append(weight * np.einsum("kd,kd->k", grads[:, i], grads[:, j]))
    entries = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
    return sp.coo_matrix(entries, shape=(mesh.n_nodes, mesh.n_nodes)).tocsr(), grads


@pytest.mark.parametrize("l, r", [(2.0, 1.0), (3.0, 0.5), (1.2, 1.0)])
@pytest.mark.parametrize("n", [16, 64])
def test_assembly_matches_the_element_loop_bit_for_bit(l, r, n):
    """The stiffness of six products per element, and the gradient energy, equal the nine-entry einsum loop."""
    m, params = tb.build_mesh(n), tb.TorusParams(l, r)
    ref, grads = element_loop_stiffness(m, l, r)
    stiffness = _assemble_core(m, l, r)[0]
    for attr in ("data", "indices", "indptr"):
        assert getattr(stiffness, attr).tobytes() == getattr(ref, attr).tobytes(), attr
    v = np.sin(m.nodes[:, 0] + 2.0 * m.nodes[:, 1])
    gvec = np.einsum("kid,ki->kd", grads, v[m.triangles])
    areas, _, _, t_cent = _triangle_geometry(m)
    weight = np.exp(-v[m.triangles].mean(axis=1))  # e^{-v} at the centroids
    energy = float(2.0 * math.pi * np.sum(areas * (l + r * t_cent) * (np.einsum("kd,kd->k", gvec, gvec) * weight)))
    assert tb.grad_energy_weighted(m, params, tb.DiskField(m, v)) == energy


def element_entries(mesh, w0, w1):
    """The ``(9, T)`` element entries that ``_assemble_core`` sums, entry (i, j) of each triangle in row 3 i + j."""
    areas, gx, gy, t_cent = _triangle_geometry(mesh)
    weight = areas * (w0 + w1 * t_cent)
    return np.stack([(gx[i] * gx[j] + gy[i] * gy[j]) * weight for i in range(3) for j in range(3)])


@pytest.mark.parametrize("n", [*range(2, 67), 128])
def test_ring_blocks_sum_the_entries_as_one_conversion_bit_for_bit(n):
    """The stiffness summed a block of whole rings at a time equals one COO to CSR conversion of all its entries."""
    m = tb.build_mesh(n)
    index = m.triangles.T
    entries = element_entries(m, 2.0, 1.0)
    ref = sp.coo_matrix((entries.ravel(), (np.repeat(index, 3, axis=0).ravel(), np.tile(index, (3, 1)).ravel())),
                        shape=(m.n_nodes, m.n_nodes)).tocsr()
    stiffness = _assemble_core(m, 2.0, 1.0)[0]
    for attr in ("indptr", "indices", "data"):
        assert getattr(stiffness, attr).tobytes() == getattr(ref, attr).tobytes(), attr


def test_triangles_out_of_ring_order_have_no_assembly(params):
    """The blocks read each ring's triangles from the rows ``build_mesh`` gives them: another order raises.

    At 40 rings the stiffness sums in two blocks; a mesh of one block sums all its entries at once.
    """
    m = tb.build_mesh(40)
    with pytest.raises(tb.DomainError, match="ring order"):
        tb.assemble(tb.DiskMesh(m.nodes, m.triangles[::-1], 40), params)


@pytest.mark.parametrize("n", [4, 33])
def test_the_diagonal_holds_the_stiffness_diagonal_read_only(params, n):
    """``assemble``'s ``diagonal`` is ``stiffness.diagonal()`` bit for bit, read-only."""
    ops = tb.assemble(tb.build_mesh(n), params)
    assert ops.diagonal.tobytes() == ops.stiffness.diagonal().tobytes()
    assert not ops.diagonal.flags.writeable


@pytest.mark.parametrize("n", [4, 33])
def test_the_cached_stiffness_is_read_only(params, n):
    """Every solve on a mesh, the scan's threads among them, shares the cached stiffness: none may write it."""
    S = tb.assemble(tb.build_mesh(n), params).stiffness
    for part in ("data", "indices", "indptr"):
        assert not getattr(S, part).flags.writeable, part


def test_a_node_on_no_triangle_has_no_assembly(params):
    """Without the center's six triangles, the center node has no stiffness row: ``assemble`` raises."""
    m = tb.build_mesh(4)
    with pytest.raises(tb.DomainError, match="1 of %d nodes lie on no triangle" % m.n_nodes):
        tb.assemble(tb.DiskMesh(m.nodes, m.triangles[6:], 4), params)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_triangle_area_matches_polygon_oracle(n):
    m = tb.build_mesh(n)
    areas = _triangle_geometry(m)[0]
    assert areas.sum() == pytest.approx(inscribed_polygon_area(6 * n), rel=1e-12)
    # O(h^2) deficit against the disk area
    assert abs(areas.sum() - math.pi) <= 1.05 * (2 * math.pi**3 / 3) / (6 * n) ** 2


def test_stiffness_kernel_and_spd(params, mesh16):
    ops = tb.assemble(mesh16, params)
    S = ops.stiffness
    assert abs(S - S.T).max() <= 1e-13
    const = np.ones(mesh16.n_nodes)
    assert np.abs(S @ const).max() <= 1e-12 * abs(S).max()
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.normal(size=mesh16.n_nodes)
        assert v @ (S @ v) >= -1e-12


def test_stiffness_kernel_is_exactly_constants(params):
    m = tb.build_mesh(8)
    S = tb.assemble(m, params).stiffness.toarray()
    eigs = np.sort(np.linalg.eigvalsh(S))
    assert abs(eigs[0]) <= 1e-12 * eigs[-1]
    assert eigs[1] >= 1e-6 * eigs[-1]


def test_mass_sums(params):
    m = tb.build_mesh(32)
    ops = tb.assemble(m, params)
    assert ops.volume_mass.sum() == pytest.approx(params.volume(), rel=0.01)
    assert ops.boundary_mass.sum() == pytest.approx(params.boundary_area(), rel=0.01)
    assert np.all(ops.boundary_mass[:m.n_interior] == 0.0)


def test_integrate_volume_examples(params, mesh32):
    exp_zero = tb.DiskField(mesh32, tb.exp_capped(np.zeros(mesh32.n_nodes)))
    assert tb.integrate_volume(mesh32, params, exp_zero) == pytest.approx(params.volume(), rel=1e-3)
    ft = tb.DiskField.from_function(mesh32, lambda t, s: t)
    assert tb.integrate_volume(mesh32, params, ft) == pytest.approx(math.pi**2 / 2, rel=0.01)
    big = tb.DiskField.constant(mesh32, 1e4)
    with pytest.raises(OverflowError):  # e^v is taken before the integral, by the cap
        tb.integrate_volume(mesh32, params, tb.DiskField(mesh32, tb.exp_capped(big.values)))


def test_integrate_boundary_examples(params, mesh32):
    exp_zero = tb.DiskField(mesh32, tb.exp_capped(np.zeros(mesh32.n_nodes)))
    assert integrate_boundary(mesh32, params, exp_zero) == pytest.approx(params.boundary_area(), rel=1e-3)
    ft = tb.DiskField.from_function(mesh32, lambda t, s: t)
    assert integrate_boundary(mesh32, params, ft) == pytest.approx(2 * math.pi**2, rel=0.01)
    interior = tb.DiskField.from_function(mesh32, lambda t, s: np.maximum(0.0, 0.5 - t * t - s * s))
    assert abs(integrate_boundary(mesh32, params, interior)) <= 1e-12


def test_dirichlet_energy_examples(params, mesh32):
    const = tb.DiskField.constant(mesh32, 1.0)
    assert abs(tb.dirichlet_energy(mesh32, params, const)) <= 1e-12
    ft = tb.DiskField.from_function(mesh32, lambda t, s: t)
    assert tb.dirichlet_energy(mesh32, params, ft) == pytest.approx(4 * math.pi**2, rel=0.01)
    e1 = tb.dirichlet_energy(mesh32, params, ft)
    e3 = tb.dirichlet_energy(mesh32, params, tb.DiskField(mesh32, 3.0 * ft.values))
    assert e3 == pytest.approx(9.0 * e1, rel=1e-12)


def test_quadrature_against_high_order_oracle(params):
    field_fn = SmoothFieldBasis(5)
    exact_vol = 2 * math.pi * params.r**2 * gauss_disk_weighted(
        lambda t, s: np.exp(field_fn(t, s)), params.l, params.r)
    exact_bnd = 2 * math.pi * params.r * gauss_boundary_weighted(
        lambda t, s: np.exp(field_fn(t, s)), params.l, params.r)
    errs_v, errs_b = [], []
    for n in (8, 16, 32, 64):
        m = tb.build_mesh(n)
        exp_fld = tb.DiskField.from_function(m, lambda t, s: tb.exp_capped(field_fn(t, s)))
        errs_v.append(abs(tb.integrate_volume(m, params, exp_fld) - exact_vol))
        errs_b.append(abs(integrate_boundary(m, params, exp_fld) - exact_bnd))
    assert 1.7 <= fit_order(errs_v) <= 2.3
    assert 1.7 <= fit_order(errs_b) <= 2.3


def test_grad_energy_weighted_matches_stiffness(params, mesh16):
    """The e^{-v} weight lies between e^{-max v} and e^{-min v}, and a shift of v by c scales the integral by e^{-c}."""
    field = tb.DiskField.from_function(mesh16, SmoothFieldBasis(9))
    energy = tb.dirichlet_energy(mesh16, params, field)
    weighted = tb.grad_energy_weighted(mesh16, params, field)
    assert math.exp(-field.values.max()) * energy * (1 - 1e-12) <= weighted
    assert weighted <= math.exp(-field.values.min()) * energy * (1 + 1e-12)
    shifted = tb.DiskField(mesh16, field.values + 0.7)
    assert tb.grad_energy_weighted(mesh16, params, shifted) == pytest.approx(math.exp(-0.7) * weighted, rel=1e-14)


def test_field_validation(mesh16):
    with pytest.raises(tb.DomainError):
        tb.DiskField(mesh16, np.zeros(3))
    bad = np.zeros(mesh16.n_nodes)
    bad[0] = np.nan
    with pytest.raises(tb.DomainError):
        tb.DiskField(mesh16, bad)


@pytest.mark.parametrize("n", [4, 8, 64])
def test_coarse_mesh_nodes_are_nested(n):
    m = tb.build_mesh(n)
    coarse, sampling, prolongation = coarse_mesh(m)
    assert np.array_equal(m.nodes[nested_index(m)], coarse.nodes)
    assert np.array_equal(sampling @ m.nodes, coarse.nodes)
    assert np.array_equal((prolongation @ coarse.nodes)[nested_index(m)], coarse.nodes)
    assert all(a is b for a, b in zip(coarse_mesh(m), (coarse, sampling, prolongation)))


@pytest.mark.parametrize("n", [2, 3, 7])
def test_coarse_mesh_needs_four_rings_or_more(n):
    """2 and 3 rings have no level below; 7 rings have the 3-ring mesh, whose nodes do not nest."""
    m = tb.build_mesh(n)
    level = coarse_mesh(m)
    if n < 4:
        assert level is None
    else:
        coarse, sampling, prolongation = level
        assert coarse.n_rings == n // 2 and sampling.shape == (coarse.n_nodes, m.n_nodes)
        assert prolongation.shape == (m.n_nodes, coarse.n_nodes)
        assert single_weight_rows(sampling).size == single_weight_rows(prolongation).size == 7  # center and boundary
        assert coarse_mesh(coarse) is None


@pytest.mark.parametrize("n", [5, 9, 33, 65])
def test_an_odd_ring_count_has_its_transfer_and_restriction(n):
    """An odd ring count prolongs from, and restricts to, ``n // 2`` rings by the one ring interpolation."""
    m = tb.build_mesh(n)
    coarse, sampling, P = coarse_mesh(m)
    assert coarse.n_rings == n // 2 and sampling.shape == (coarse.n_nodes, m.n_nodes)
    assert P.shape == (m.n_nodes, coarse.n_nodes)
    linear = lambda x: 0.7 - x[:, 0] + 0.3 * x[:, 1]
    assert np.max(np.abs(P @ linear(coarse.nodes) - linear(m.nodes))) <= 1e-14
    assert np.max(np.abs(sampling @ linear(m.nodes) - linear(coarse.nodes))) <= 1e-14
    both = np.stack([linear(m.nodes), 2.0 * linear(m.nodes)], axis=1)
    assert np.array_equal((sampling @ both)[:, 0], sampling @ both[:, 0])


def test_the_restriction_reads_the_nested_nodes_bit_for_bit():
    """Under an even ring count the sampling returns the values at the nested nodes, the single-weight rows of ``P``.

    ``V`` holds no -0.0: the product adds each value to a +0.0, so a -0.0
    would come back as +0.0.
    """
    rng = np.random.default_rng(11)
    for n in (*range(4, 67, 2), 128, 256):
        m = tb.build_mesh(n)
        index, V = nested_index(m), rng.standard_normal(m.n_nodes)
        assert not np.any((V == 0.0) & np.signbit(V)), n
        assert (coarse_mesh(m)[1] @ V).tobytes() == V[index].tobytes(), n
        P = coarse_mesh(m)[2]
        single = single_weight_rows(P)
        assert np.array_equal(single, index), n
        assert np.all(P.data[P.indptr[single]] == 1.0), n


@pytest.mark.parametrize("n", [5, 33, 65, 129])
def test_an_odd_ring_count_holds_the_center_and_six_boundary_nodes(n):
    """Under an odd ring count only node 0 and the boundary nodes at multiples of 60 degrees sit on coarse nodes.

    Their rows of ``P`` are the single weight 1.0 on the coarse node at the
    same ring fraction and angle, so they prolong its value bit for bit;
    the two meshes round those angles apart, so the coordinates agree to
    a few ulps.
    """
    m = tb.build_mesh(n)
    coarse, _, P = coarse_mesh(m)
    single = single_weight_rows(P)
    columns = P.indices[P.indptr[single]]
    assert np.array_equal(single, [0, *(m.n_interior + n * np.arange(6))])
    assert np.array_equal(columns, [0, *(coarse.n_interior + (n // 2) * np.arange(6))])
    assert np.all(P.data[P.indptr[single]] == 1.0)
    vals = np.random.default_rng(n).standard_normal(coarse.n_nodes)
    assert (P @ vals)[single].tobytes() == vals[columns].tobytes()
    assert np.max(np.abs(m.nodes[single] - coarse.nodes[columns])) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n_to, n_from", [(129, 64), (65, 32), (33, 16), (100, 37), (64, 129), (16, 33), (37, 100),
                                          (5, 2), (2, 5)])
def test_ring_interpolation_is_exact_for_linear_functions_at_any_ratio(n_to, n_from):
    """Rows sum to one and hold at most four sorted nonzero weights, which reproduce linear functions."""
    P = ring_interpolation(n_to, n_from)
    to, source = tb.build_mesh(n_to), tb.build_mesh(n_from)
    assert P.shape == (to.n_nodes, source.n_nodes)
    assert np.max(np.abs(np.asarray(P.sum(axis=1)).ravel() - 1.0)) <= 1e-15
    row_nnz = np.diff(P.indptr)
    assert row_nnz.max() <= 4 and P.has_sorted_indices and np.all(P.data != 0.0)
    linear = lambda x: 0.7 - x[:, 0] + 0.3 * x[:, 1]
    assert np.max(np.abs(P @ linear(source.nodes) - linear(to.nodes))) <= 4e-15
    assert np.array_equal(P[0].toarray().ravel()[:1], [1.0])  # the center


def test_ring_interpolation_is_second_order_across_odd_ring_counts():
    """The error on a smooth function falls four times per halving of h, from an odd count to its half."""
    smooth = lambda x: np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1])
    errs = [np.max(np.abs(ring_interpolation(n, n // 2) @ smooth(tb.build_mesh(n // 2).nodes)
                          - smooth(tb.build_mesh(n).nodes))) for n in (17, 33, 65, 129)]
    assert 1.9 <= fit_order(errs) <= 2.1, errs


def test_ring_interpolation_is_the_coo_prolongation_bit_for_bit():
    """At 2:1 the direct CSR build equals scipy's COO sum with its zeros eliminated: values, indices and pointers."""
    for n in (*range(4, 67, 2), 128, 256):
        ref, P = prolongation_coo(tb.build_mesh(n)), ring_interpolation(n, n // 2)
        assert P.shape == ref.shape, n
        for attr in ("data", "indices", "indptr"):
            assert getattr(P, attr).dtype == getattr(ref, attr).dtype, (n, attr)
            assert np.array_equal(getattr(P, attr), getattr(ref, attr)), (n, attr)


def _owner(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


@pytest.mark.parametrize("n", [4, 9, 64, 65])
def test_every_cached_transfer_holds_exactly_its_nonzeros(params, n):
    """The one cached ``P`` keeps no dead tail: its values and column indices own nnz entries each."""
    m = tb.build_mesh(n)
    P = coarse_mesh(m)[2]
    assert P is m._cache["coarse"][2]
    for part in (P.data, P.indices):
        assert part.size == _owner(part).size == P.nnz, (part.size, _owner(part).size, P.nnz)


def test_prolong_exact_at_nested_nodes_and_second_order():
    rng = np.random.default_rng(3)
    errs = []
    for n in (8, 16, 32, 64):
        m = tb.build_mesh(n)
        coarse, _, P = coarse_mesh(m)
        vals = rng.standard_normal(coarse.n_nodes)
        assert np.array_equal((P @ vals)[nested_index(m)], vals)
        linear = lambda x: 0.7 - x[:, 0] + 0.3 * x[:, 1]
        assert np.max(np.abs(P @ linear(coarse.nodes) - linear(m.nodes))) <= 1e-14
        smooth = lambda x: x[:, 0] ** 2 + 0.3 * x[:, 1]
        errs.append(np.max(np.abs(P @ smooth(coarse.nodes) - smooth(m.nodes))))
        assert errs[-1] <= 1.2 * m.h**2
    assert 1.9 <= fit_order(errs) <= 2.1


def test_prolong_is_a_cached_sparse_operator():
    """One matrix per mesh: a nested node's row is a single 1.0, other rows have four entries.

    The level walk prolongs each level's field by ``coarse_mesh``'s third
    entry; a second read of the link caches nothing new and returns the
    same matrix.
    """
    rng = np.random.default_rng(5)
    for n in (4, 8, 16, 32, 64):
        m = tb.build_mesh(n)
        coarse, nested = coarse_mesh(m)[0], nested_index(m)
        vals = rng.standard_normal(coarse.n_nodes)
        matrix = coarse_mesh(m)[2]
        out = matrix @ vals
        cached = set(m._cache)
        assert coarse_mesh(m)[2] is matrix
        assert set(m._cache) == cached
        assert np.array_equal(out[nested], vals)
        assert (coarse_mesh(m)[2] @ vals).tobytes() == out.tobytes()
        row_nnz = np.diff(matrix.indptr)
        assert np.all(row_nnz <= 4)
        assert np.all(row_nnz[nested] == 1) and np.all(matrix[nested].data == 1.0)
        linear = lambda x: 0.7 - x[:, 0] + 0.3 * x[:, 1]
        assert np.max(np.abs(matrix @ linear(coarse.nodes) - linear(m.nodes))) <= 1e-15


@pytest.mark.parametrize("interior", [False, True])
def test_the_restriction_is_a_view_of_the_one_cached_prolongation(params, interior):
    """The cycles' ``R = P.T`` shares ``P``'s arrays, the cache holds ``P`` alone, and ``R @ x`` has a copy's bits.

    With ``interior`` ``x`` is zero on the boundary, as a Dirichlet
    residual is, and ``R @ x`` on the coarse interior has the bits of the
    interior block ``P[:k, :kc]``'s transpose, sliced and copied here.
    """
    rng = np.random.default_rng(7)
    for n in (4, 8, 16, 32, 64, 128):
        m = tb.build_mesh(n)
        coarse, _, P = coarse_mesh(m)
        R = P.T
        assert np.shares_memory(R.data, P.data) and np.shares_memory(R.indices, P.indices), n
        assert m._cache["coarse"][2] is P, n
        x = rng.standard_normal(R.shape[1])
        if interior:
            k, kc = m.n_interior, coarse.n_interior
            x[k:] = 0.0
            assert (R @ x)[:kc].tobytes() == (P[:k, :kc].T.tocsr() @ x[:k]).tobytes(), n
        else:
            assert (R @ x).tobytes() == (P.T.tocsr() @ x).tobytes(), n


@pytest.mark.parametrize("n", [64, 128])
def test_assembly_peaks_below_1_6_times_its_entries(n):
    """``_assemble_core`` traces at most 1.6 times its nine float64 entries per triangle.

    Every per-triangle array, the geometry, the products and the COO to
    CSR conversion that holds a block's triplets beside their CSR copy,
    lives for one block of rings at a time, so the blocks' CSR pieces and
    the stiffness they are joined into set the peak: 1.47 times at 64
    rings, 1.24 at 128.  With the geometry and the products of the whole
    mesh made before the blocks it was 2.2 to 2.4 times, and one conversion
    of the whole mesh peaked at 4.2 times.
    """
    m = tb.build_mesh(n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        _assemble_core(m, 2.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 72 * m.triangles.shape[0], peak / (72 * m.triangles.shape[0])


@pytest.mark.parametrize("n", [64, 128])
def test_build_mesh_peaks_near_the_bytes_it_keeps(n):
    """``build_mesh`` traces at most five times the mesh it returns: its walk sorts nothing and holds no per-step key."""
    tb.build_mesh(4)  # first calls allocate lazily
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        m = tb.build_mesh(n)
        kept, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert m.n_rings == n and peak <= 5 * kept, peak / kept


@pytest.mark.parametrize("n", [64, 128])
def test_transfer_build_peaks_near_the_bytes_it_keeps(n):
    """``ring_interpolation`` traces at most five times the CSR arrays it returns: no COO triplets, no dead tail."""
    ring_interpolation(8, 4)  # first calls allocate lazily
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        P = ring_interpolation(n, n // 2)
        kept, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert kept >= P.data.nbytes + P.indices.nbytes + P.indptr.nbytes
    assert peak <= 5 * kept, peak / kept


def test_discarded_mesh_is_freed_without_gc(params):
    """Nothing a solve caches on a mesh refers back to it, so refcounting frees it."""
    gc.disable()
    try:
        m = tb.build_mesh(8)
        prob = tb.ProblemP1(1.5, tb.DiskField(m, 1.0 + 0.2 * m.nodes[:, 0]))
        tb.assemble(m, params)
        rep = tb.solve_p1_newton(m, params, prob)
        refs = [weakref.ref(m), weakref.ref(coarse_mesh(m)[0])]
        del m, prob, rep
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
