"""A Dirichlet record is the Neumann record with its boundary rows pinned.

``solvers._equation`` hands every level the one cached stiffness ``S`` of all
its nodes and the pin row ``k = n_interior``; the boundary nodes are the
trailing ones.  On a field zero on the boundary, each operator of the record
must have the bits of the same operator on the leading blocks ``[:k, :k]``,
sliced here as the oracle, and must keep the pinned rows ``k:`` at zero: the
residual, the shifted matrix that a factor reads, the Jacobian operator that
a cycled step applies, and a cycle on that operator.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import torusbvp as tb
from torusbvp import solvers
from torusbvp.mesh import coarse_mesh


def dirichlet_record(mesh, params):
    t = mesh.nodes[:, 0]
    prob = tb.ProblemP1(1.5, tb.DiskField(mesh, 1.0 + 0.2 * t))
    return solvers._equation(mesh, params, prob, dirichlet=True)


def boundary_zero_field(mesh):
    """A smooth field, exactly zero on the boundary nodes."""
    t, s = mesh.nodes[:, 0], mesh.nodes[:, 1]
    v = 0.3 * (1.0 - t * t - s * s) * (1.0 + 0.5 * t - 0.2 * s)
    v[mesh.boundary_nodes] = 0.0
    return v


def leading_cycle(block, d, P, lu, r):
    """One cycle on the leading blocks, ``J x = block x + d x`` and ``P[:k, :kc]``, ``lu`` the coarse block's factor."""
    jacobi = solvers._TWO_GRID_DAMPING / (block.diagonal() + d)
    x, res = np.zeros_like(r), r
    for sweep in range(2 * solvers._TWO_GRID_SWEEPS + 1):
        if sweep:
            res = r - (block @ x + d * x)
        if sweep == solvers._TWO_GRID_SWEEPS:
            x += P @ lu.solve(P.T.tocsr() @ res)
        else:
            x += jacobi * res
    return x


@pytest.mark.parametrize("n", [16, 32, 33])
def test_the_pinned_record_has_the_leading_blocks_bits(params, n):
    mesh = tb.build_mesh(n)
    eq = dirichlet_record(mesh, params)
    S, c, w, W, diagonal, k = eq
    ops = tb.assemble(mesh, params)
    assert k == mesh.n_interior and S is ops.stiffness and diagonal is ops.diagonal
    v = boundary_zero_field(mesh)
    block = S[:k, :k]

    F = solvers._residual(eq, v)
    assert F[:k].tobytes() == (block @ v[:k] + c[:k] + w[:k] * np.exp(v[:k])).tobytes()
    assert F[k:].tobytes() == np.zeros(mesh.n_nodes - k).tobytes()

    d = solvers._exp_terms(eq, v)
    J = solvers._shifted(eq, d)
    ref = (block + sp.diags(d[:k])).tocsr()
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(J[:k, :k], part), getattr(ref, part)), part
    assert (J[k:] != sp.eye(mesh.n_nodes, format="csr")[k:]).nnz == 0

    operator = solvers._Jacobian(eq, d)
    Jv = operator.product(v, np.empty_like(v))
    assert Jv[:k].tobytes() == (block @ v[:k] + d[:k] * v[:k]).tobytes()
    assert not np.any(Jv[k:])
    u = np.random.default_rng(n).normal(size=mesh.n_nodes)  # nonzero on the pinned rows too
    assert operator.product(u, np.empty_like(u))[k:].tobytes() == u[k:].tobytes()

    coarse, _, P = coarse_mesh(mesh)
    coarse_eq = dirichlet_record(coarse, params)
    kc = coarse_eq.k
    coarse_J = solvers._shifted(coarse_eq, solvers._exp_terms(coarse_eq, boundary_zero_field(coarse)))
    lu = splu(sp.csc_matrix(coarse_J[:kc, :kc]))
    leading = solvers._leading_solve(lu, kc)

    def coarse_solve(coarse_r):  # a coarse cycle would read the pinned entries too: they must be zero
        assert not np.any(coarse_r[kc:])
        return leading(coarse_r)

    cycle = solvers._cycle(operator, P, kc, coarse_solve)
    r = np.zeros(mesh.n_nodes)
    r[:k] = np.random.default_rng(n).normal(size=k)
    x = cycle(r)
    assert not np.any(x[k:])
    assert x[:k].tobytes() == leading_cycle(block, d[:k], P[:k, :kc], lu, r[:k]).tobytes()
