"""Unit-disk triangulation and weighted operators for torus-reduced integrals.

The mesh is a deterministic concentric-ring triangulation of the closed unit
disk: ring ``k`` (k = 0..n_rings) sits at radius ``k/n_rings`` and carries
``max(1, 6k)`` nodes.  Piecewise-linear elements with the affine weight
``(l + r t)`` give the torus volume form ``2 pi r^2 (l + r t) dt ds``, the
gradient form ``2 pi (l + r t) dt ds`` and the boundary form
``2 pi r (l + r t) dsigma`` exactly up to the O(h^2) polygonal boundary error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp

from .errors import DomainError
from .geometry import TorusParams

TWO_PI = 2.0 * math.pi


class DiskMesh:
    """Immutable ring triangulation of the closed unit disk (``build_mesh``), numbered ring by ring.

    The ``6 n_rings`` boundary nodes come last, so the interior nodes, the
    unknowns of a Dirichlet problem, are the leading ``n_interior``.
    ``n_rings`` must be an integer of at least 2 (``_ring_count``);
    ``nodes`` finite, of shape ``(N, 2)``; ``triangles`` integers of shape
    ``(T, 3)`` in ``[0, N)``, checked before they are stored as ``int32``,
    which holds every index of a mesh that fits in memory.
    """

    def __init__(self, nodes, triangles, n_rings):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        triangles = np.asarray(triangles)
        self.n_rings = _ring_count(n_rings)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise DomainError("nodes must have shape (N, 2), got %r" % (self.nodes.shape,))
        if not np.all(np.isfinite(self.nodes)):
            raise DomainError("nodes must be finite")
        if self.n_nodes != 1 + 3 * self.n_rings * (self.n_rings + 1):
            raise DomainError("%d nodes do not form a mesh of %d rings" % (self.n_nodes, self.n_rings))
        if triangles.ndim != 2 or triangles.shape[1] != 3 or not np.issubdtype(triangles.dtype, np.integer):
            raise DomainError("triangles must be integers of shape (T, 3), got %s of shape %r"
                              % (triangles.dtype, triangles.shape))
        if triangles.size and not 0 <= triangles.min() <= triangles.max() < self.n_nodes:
            raise DomainError("triangle indices must lie in [0, %d), got [%d, %d]"
                              % (self.n_nodes, triangles.min(), triangles.max()))
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int32)
        self.h = 1.0 / self.n_rings
        self.n_interior = self.n_nodes - 6 * self.n_rings
        self.boundary_nodes = np.arange(self.n_interior, self.n_nodes)
        for a in (self.nodes, self.triangles, self.boundary_nodes):
            a.setflags(write=False)
        self._cache = {}

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


def _ring_count(n_rings) -> int:
    """``n_rings`` as an ``int``; a ring count that is not an integer of at least 2 raises ``DomainError``."""
    if not isinstance(n_rings, (int, np.integer)) or n_rings < 2:
        raise DomainError("n_rings must be an integer >= 2, got %r" % (n_rings,))
    return int(n_rings)


def build_mesh(n_rings: int) -> DiskMesh:
    """Concentric-ring triangulation with nominal mesh size ``h = 1/n_rings``.

    Six triangles fan out from the center.  Between rings ``r`` and
    ``r + 1`` a walk around both rings adds ``12 r + 6`` more, each written
    straight into the row that its step gives in closed form: nothing is
    sorted.
    """
    n_rings = _ring_count(n_rings)
    ring, slot, start = _ring_layout(n_rings)
    ang = slot * (TWO_PI / np.maximum(1, 6 * ring))
    rad = ring / n_rings
    nodes = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)

    triangles = np.empty((6 * n_rings**2, 3), dtype=np.int32)
    triangles[:6] = np.stack([np.zeros(6, dtype=np.int64), 1 + np.arange(6), 1 + (np.arange(1, 7) % 6)], axis=1)
    # Between rings r and r + 1 (r >= 1), walk both rings counterclockwise:
    # each step advances the inner ring (slot i -> i + 1, of m1 = 6 r) or
    # the outer one (j -> j + 1, of m2 = 6 (r + 1)), whichever has the
    # smaller next angle, the inner one on a tie: inner step i when
    # (i + 1) m2 <= (j + 1) m1.  So inner step i comes after
    # j = i + 1 + i // r outer steps and outer step j after
    # i = j - j // (r + 1) inner ones.  The center's six triangles and the
    # walks inside ring r fill the first 6 r^2 rows, so the step's triangle
    # is row 6 r^2 + i + j: (a, b, a1) for an inner step, (b, b1, a) for an
    # outer one.
    a = np.arange(1, start[n_rings])  # inner step i from node a, slot i of ring r
    r, i = ring[a], slot[a]
    j = i + 1 + i // r
    triangles[6 * r**2 + i + j] = np.stack([a, start[r + 1] + j, start[r] + (i + 1) % (6 * r)], axis=1)
    b = np.arange(start[2], ring.size)  # outer step j from node b, slot j of ring r + 1
    r, j = ring[b] - 1, slot[b]
    i = j - j // (r + 1)
    triangles[6 * r**2 + i + j] = np.stack([b, start[r + 1] + (j + 1) % (6 * r + 6), start[r] + i % (6 * r)], axis=1)

    return DiskMesh(nodes, triangles, n_rings)


def _ring_layout(n_rings: int):
    """Ring and slot of every node of ``build_mesh(n_rings)``, and each ring's first node."""
    counts = np.maximum(1, 6 * np.arange(n_rings + 1))
    start = np.concatenate([[0], np.cumsum(counts)[:-1]])
    ring = np.repeat(np.arange(n_rings + 1), counts)
    return ring, np.arange(ring.size) - start[ring], start


def coarse_mesh(mesh: DiskMesh):
    """The level below ``mesh``: its half-ring mesh and the two transfers between them (cached).

    A mesh of 4 rings or more has ``build_mesh(n_rings // 2)`` below it.
    ``sampling`` is ``ring_interpolation`` to that mesh from this one and
    ``prolongation`` the one back; both hold for any ring count, whether
    the rings nest or not.  A node at the place of a node of the other
    mesh, every coarse node when ``n_rings`` is even (ring ``k``, slot
    ``j`` is ring ``2k``, slot ``2j`` here), has a row with the single
    weight 1.0 on that node.  Returns ``(coarse, sampling, prolongation)``,
    or None below 4 rings.
    """
    if "coarse" not in mesh._cache:
        n = mesh.n_rings
        mesh._cache["coarse"] = ((build_mesh(n // 2), ring_interpolation(n // 2, n), ring_interpolation(n, n // 2))
                                 if n >= 4 else None)
    return mesh._cache["coarse"]


def ring_interpolation(n_to: int, n_from: int) -> sp.csr_matrix:
    """The weights that interpolate nodal values on ``build_mesh(n_from)`` to the nodes of ``build_mesh(n_to)``.

    The ray from the center through a node crosses the polygons of the two
    rings of ``n_from`` around the node's radius (the last two beyond the
    outermost).  The value at each crossing is linear along that polygon's
    edge, and the node's value is linear in the radius through the two
    crossings.  Linear functions are reproduced, smooth ones to O(h^2), and
    a node at the place of a node of ``n_from`` gets its value exactly.
    Each row has at most four nonzero weights, the two ends of the edge
    crossed on each ring, written in column order straight into CSR arrays
    sized to the nonzeros.
    """
    n_to, n_from = _ring_count(n_to), _ring_count(n_from)
    ring, slot, _ = _ring_layout(n_to)
    start = _ring_layout(n_from)[2]
    denom = np.maximum(ring, 1)

    def crossing(k):
        # slot J of ring K lies at the angle of slot J k / K on ring k of n_from
        pos = slot * k
        lo, frac = pos // denom, (pos % denom) / denom
        size = np.maximum(6 * k, 1)
        half = math.pi / size  # half the angle between neighbours on ring k
        left, right = np.sin(2.0 * half * frac), np.sin(2.0 * half * (1.0 - frac))
        with np.errstate(invalid="ignore", divide="ignore"):  # ring 0 is the center
            along = np.where(k > 0, left / (left + right), 0.0)
        radius = (k / n_from) * (np.cos(half) / np.cos((2.0 * frac - 1.0) * half))
        return radius, start[k] + lo % size, start[k] + (lo + 1) % size, along

    inner = np.minimum(ring * n_from // n_to, n_from - 1)
    r0, a0, b0, t0 = crossing(inner)
    r1, a1, b1, t1 = crossing(inner + 1)
    w = (ring / n_to - r0) / (r1 - r0)
    weights = np.stack([(1.0 - w) * (1.0 - t0), (1.0 - w) * t0, w * (1.0 - t1), w * t1], axis=1)
    del r0, t0, r1, t1, w, inner, denom, slot  # freed before the CSR arrays: 6 -> 4 times their bytes
    columns = np.stack([a0, b0, a1, b1], axis=1).astype(np.int32)
    del a0, b0, a1, b1
    stored = weights != 0.0  # the center's second entry and every exact zero go
    indptr = np.zeros(ring.size + 1, dtype=np.int32)
    np.cumsum(stored.sum(axis=1), out=indptr[1:])
    matrix = sp.csr_matrix((weights[stored], columns[stored], indptr), shape=(ring.size, start[-1] + 6 * n_from))
    matrix.sort_indices()  # in place: an edge from a ring's last node to its first lists the larger column first
    return matrix


def _triangle_geometry(mesh: DiskMesh, rows=slice(None)):
    """Areas, the x and y parts of the P1 basis gradients, and the centroid t-coordinate of the triangles ``rows``.

    ``rows`` is a slice of the triangles, all of them by default; each
    figure of a triangle has the same bits in any slice that holds it.
    Row ``i`` of each gradient part, shape ``(3, len(rows))``, belongs to
    the triangle's vertex ``i``.  Every area must be positive.  The results
    are written in place, so the peak is the corners' coordinates and the
    results: 112 bytes per triangle.
    """
    corners = mesh.triangles[rows].T
    x, y = mesh.nodes[:, 0][corners], mesh.nodes[:, 1][corners]  # (3, len(rows)) each
    det = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    if np.any(det <= 0.0):
        raise DomainError("mesh construction produced a non-positively-oriented triangle")
    t_cent = (x[0] + x[1] + x[2]) / 3.0
    # gx = (y1 - y2, y2 - y0, y0 - y1) / det and gy = (x2 - x1, x0 - x2, x1 - x0) / det, each row written in place
    gx, gy = np.empty((3, det.size)), np.empty((3, det.size))
    for i in range(3):
        np.subtract(y[i - 2], y[i - 1], out=gx[i])
        np.subtract(x[i - 1], x[i - 2], out=gy[i])
    gx /= det
    gy /= det
    det *= 0.5  # the areas
    return det, gx, gy, t_cent


_PRODUCT = [0, 1, 2, 1, 3, 4, 2, 4, 5]  # the row of _assemble_core's products that holds entry (i, j)


def _ring_blocks(n_rings: int):
    """Blocks of whole rings of ``build_mesh(n_rings)``, about as many triangles each: ``(walks, lo, hi)``.

    The walk between rings r and r + 1 fills triangle rows ``6 r^2`` to
    ``6 (r + 1)^2``, so every triangle with a corner on rings k0 to k1 - 1,
    nodes ``lo`` to ``hi``, lies in the rows ``walks`` of walks k0 - 1 to
    k1 - 1.  Each conversion has a fixed cost, so a block holds some 4096
    triangles or more, and there are at most eight.  The last block runs to
    the last triangle.
    """
    def first(k):  # the first node of ring k; the node count at k = n_rings + 1
        return 1 + 3 * k * (k - 1) if k else 0

    blocks = min(8, max(1, 6 * n_rings**2 // 4096))
    edges = sorted({round((n_rings + 1) * math.sqrt(k / blocks)) for k in range(blocks + 1)})
    for k0, k1 in zip(edges, edges[1:]):
        yield slice(6 * max(k0 - 1, 0) ** 2, 6 * k1**2 if k1 <= n_rings else None), first(k0), first(k1)


def _assemble_core(mesh: DiskMesh, w0: float, w1: float):
    """Raw operators for the affine weight ``w0 + w1 t`` (no 2*pi factors).

    Stiffness uses centroid quadrature, exact for constant gradients against
    an affine weight; masses are vertex-lumped.  The stiffness is built a
    block of whole rings at a time (``_ring_blocks``): the block's triangle
    geometry, the six distinct products of its element matrices, and their
    nine entries, which scipy sums into CSR once the geometry and the
    products are dropped.  scipy's COO to CSR conversion places each row's
    entries in input order, then sorts and sums each row on its own, so a
    block that holds every entry of its rows, in the order of one
    conversion of the whole mesh, gives them that conversion's bits.  A
    mesh whose triangles are out of ``build_mesh``'s ring order, so that a
    block would miss some entry of its rows, raises ``DomainError``.  Only
    the areas outlive their block: the blocks write them into one vector,
    from which the lumped masses sum in triangle order, as from one
    geometry of the whole mesh.  The peak is then the blocks' CSR pieces
    beside the stiffness they are joined into, each list of pieces freed as
    it is joined.
    """
    tri = mesh.triangles
    n = mesh.n_nodes
    areas = np.empty(tri.shape[0])
    indptr, indices, data, corners = [np.zeros(1, dtype=np.int32)], [], [], 0
    for walks, lo, hi in _ring_blocks(mesh.n_rings):
        areas[walks], gx, gy, t_cent = _triangle_geometry(mesh, walks)
        weight = areas[walks] * (w0 + w1 * t_cent)
        # the element matrix is symmetric: row _PRODUCT[3 i + j] of its six distinct products holds entry (i, j)
        products, product = np.empty((6, weight.size)), np.empty(weight.size)
        for row, (i, j) in enumerate([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]):
            entry = np.multiply(gx[i], gx[j], out=products[row])
            entry += np.multiply(gy[i], gy[j], out=product)
            entry *= weight
        del gx, gy, t_cent, weight, product, entry
        index = tri[walks].T
        corners += np.count_nonzero((index >= lo) & (index < hi))
        rows, cols = np.repeat(index, 3, axis=0).ravel(), np.tile(index, (3, 1)).ravel()
        entries = products[_PRODUCT].ravel()
        del products  # before the conversion, which holds the triplets beside their CSR copy
        block = sp.coo_matrix((entries, (rows, cols)), shape=(n, n)).tocsr()
        kept = block.indptr[lo:hi + 1]  # the rows whose every entry the block holds
        indptr.append(kept[1:] + (indptr[-1][-1] - kept[0]))
        indices.append(block.indices[kept[0]:kept[-1]])
        data.append(block.data[kept[0]:kept[-1]])
        del entries, rows, cols, block, kept
    if corners != tri.size:
        raise DomainError("the triangles are not in build_mesh's ring order: %d of their %d corners fall outside "
                          "the ring block of their node" % (tri.size - corners, tri.size))

    vol_mass = np.zeros(n)
    t_node = mesh.nodes[:, 0]
    for i in range(3):
        np.add.at(vol_mass, tri[:, i], (areas / 3.0) * (w0 + w1 * t_node[tri[:, i]]))
    del areas

    bnd_mass = np.zeros(n)
    b = mesh.boundary_nodes
    nxt = np.roll(b, -1)
    seg = np.linalg.norm(mesh.nodes[nxt] - mesh.nodes[b], axis=1)
    np.add.at(bnd_mass, b, 0.5 * seg * (w0 + w1 * t_node[b]))
    np.add.at(bnd_mass, nxt, 0.5 * seg * (w0 + w1 * t_node[nxt]))

    data = np.concatenate(data)  # each list's blocks go as it is joined
    indices = np.concatenate(indices)
    return sp.csr_matrix((data, indices, np.concatenate(indptr)), shape=(n, n)), vol_mass, bnd_mass


@dataclass(frozen=True)
class WeightedOperators:
    """Assembled torus-weighted operators on a disk mesh, every array read-only.

    ``stiffness`` is symmetric positive semidefinite with the constants as
    kernel; ``volume_mass`` and ``boundary_mass`` are lumped diagonals whose
    sums approximate the torus volume and boundary area.  ``diagonal`` holds
    the stiffness's diagonal values, each positive: every record reads them
    (``solvers._equation``), and a factored matrix sets them, plus its
    shift, on a copy of the stiffness (``solvers._factorize``).  The cache
    is shared by every solve on the mesh, the scan's threads among them, so
    none may write it.
    """

    stiffness: sp.csr_matrix
    volume_mass: np.ndarray
    boundary_mass: np.ndarray
    diagonal: np.ndarray


def assemble(mesh: DiskMesh, p: TorusParams) -> WeightedOperators:
    """Weighted stiffness, its diagonal and lumped volume/boundary masses (memoized per mesh), read-only.

    A node on no triangle has no stiffness row: its diagonal value is zero,
    and it raises ``DomainError``.
    """
    key = ("ops", p.l, p.r)
    ops = mesh._cache.get(key)
    if ops is None:
        stiff, vol, bnd = _assemble_core(mesh, p.l, p.r)
        stiff.data *= TWO_PI
        diagonal = stiff.diagonal()
        orphans = np.count_nonzero(diagonal <= 0.0)
        if orphans:
            raise DomainError("%d of %d nodes lie on no triangle: their stiffness diagonal is not positive"
                              % (orphans, diagonal.size))
        ops = WeightedOperators(stiffness=stiff, volume_mass=TWO_PI * p.r**2 * vol,
                                boundary_mass=TWO_PI * p.r * bnd, diagonal=diagonal)
        for a in (stiff.data, stiff.indices, stiff.indptr, ops.volume_mass, ops.boundary_mass, diagonal):
            a.setflags(write=False)
        mesh._cache[key] = ops
    return ops


@dataclass(frozen=True)
class DiskField:
    """Nodal values of a rotation-invariant function reduced to the disk."""

    mesh: DiskMesh
    values: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != (self.mesh.n_nodes,):
            raise DomainError(
                "field has %r values for a mesh with %d nodes" % (vals.shape, self.mesh.n_nodes)
            )
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, mesh: DiskMesh, fn) -> "DiskField":
        """Sample ``fn(t, s)`` (vectorized) at the mesh nodes."""
        vals = np.asarray(fn(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
        return cls(mesh, np.broadcast_to(vals, (mesh.n_nodes,)).copy())

    @classmethod
    def constant(cls, mesh: DiskMesh, c: float) -> "DiskField":
        return cls(mesh, np.full(mesh.n_nodes, float(c)))


def weighted_sum(w, x) -> float:
    """``sum(w * x)`` over the nodes: the one reduction of every nodal integral.

    numpy's pairwise summation calls no BLAS, so the result has the same bits
    at any BLAS thread count, and it sums in the order of ``np.sum(w)``, so
    constant feasible data cancel exactly against the discrete volumes.
    """
    return float(np.sum(w * x))


def integrate_volume(mesh: DiskMesh, p: TorusParams, field: DiskField) -> float:
    """Torus volume integral of ``field`` via the lumped weighted mass.

    It sums the values it is given: an integral of ``e^v`` passes
    ``DiskField(mesh, exp_capped(v))``, so an overflow is the cap's
    ``OverflowError``.
    """
    return weighted_sum(assemble(mesh, p).volume_mass, field.values)


def dirichlet_energy(mesh: DiskMesh, p: TorusParams, field: DiskField) -> float:
    """Squared gradient norm of the lifted field over the torus, v' S v."""
    ops = assemble(mesh, p)
    v = field.values
    return weighted_sum(v, ops.stiffness @ v)

