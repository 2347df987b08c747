"""Solvers for the torus problems: damped Newton, constrained descent, monotone iteration.

Both model problems are one discrete equation, ``F(v) = S v + c + w e^v =
0``, with ``S`` the weighted stiffness and ``(c, w) = ProblemP2.terms``:
``c = M a + M_b b`` and ``w = M f + M_b g``, ``M`` and ``M_b`` the lumped
volume and boundary masses.  P2 is this equation on all nodes.  P1
(``Delta v + gamma = f e^v``) is its case ``a = gamma``, ``f -> -f``, ``b =
g = 0``, restricted to the interior nodes for the Dirichlet problem.  Each
solve builds its finest ``Record`` once, in its gate, and each coarser
level of a nested Newton solve builds its own (``_equation``) from the
public problem, P1 or P2: ``S``, ``c`` and ``w``, the residual weights
``W`` (``M`` for P1, ``M + M_b`` for P2), the index ``diagonal`` of
``S``'s diagonal in its data and the pin row ``k``.  The unknowns are the
leading ``k`` nodes, a Dirichlet level's interior nodes or every node, and
the trailing rows, a Dirichlet level's boundary, are pinned at zero.  Every
method reads the record, and only the record: Newton's residual ``F``, its
norm in ``W`` and its Jacobian ``S + diag(w e^v)``, the gradient ``S v +
c`` and projection sum ``sum(w e^v)`` of the constrained descent that
starts the coarsest level, and the monotone iteration's defect correction
``v <- v - (S + diag(|w| e^super))^-1 F(v)``.  A record with ``c`` all
zero and no pinned row is the a = b = 0 case (``Record.zero_linear``).
Every matrix a solver factors is ``S`` plus a diagonal, built one way
(``_shifted``), and only to be factored: a Newton step solved by cycles
applies its Jacobian as an operator on the record (``_Jacobian``), ``S x
+ (w e^v) x``, and copies no matrix.  Every public
solver first admits its data (``_admit``), which returns the finest record;
the solve and its report read that record.

Sign convention: the problems are stated with the geometer's positive
Laplacian (``Delta v = -div grad v``), so weak forms use the positive
semidefinite weighted stiffness directly.  Every residual orientation is
calibrated against the exact constant solutions in the test suite.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import (
    DomainError,
    ExistenceWindowWarning,
    InfeasibleError,
    NoBracket,
    NonConvergence,
    OrderingViolation,
    SingularJacobian,
    TorusBVPError,
)
from .functionals import (
    ProblemP1,
    ProblemP2,
    exp_capped,
    functional_I_p1,
    functional_I_p2,
    mean_value,
    reach_exponential_target,
)
from .geometry import TorusParams
from .inequalities import mu_best
from .mesh import DiskField, DiskMesh, assemble, coarse_mesh, weighted_sum


@dataclass
class SolveOptions:
    """Iteration controls, each finite and nonnegative, the caps ``int``; defaults are the desk-scale settings.

    ``max_iter`` caps the Newton steps of each nested level, not of the whole
    solve; ``max_descent_iter`` caps the constrained descent, which runs on
    the coarsest level only.

    The tolerances mean one thing per route:

    - Newton stops at the weighted residual ``tol_abs + tol_rel *
      min(r0, ||c| + |w e^v0||)``: ``r0 = |c + w|``, the residual of the
      zero field, or the size of the terms that must cancel at the
      level's start ``v0`` if that is smaller (``_newton_loop``).
    - The constrained descent stops when its weighted direction norm times
      the step taken is at most ``10 * tol_abs``; ``tol_rel`` plays no part.
    - The monotone iteration stops at the data-only stop, ``tol_abs +
      tol_rel * r0``, on the weighted residual of its latest iterate.
    """

    tol_abs: float = 1e-10
    tol_rel: float = 1e-10
    max_iter: int = 50
    max_descent_iter: int = 5000
    max_monotone_iter: int = 500

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 <= value < math.inf:
                raise DomainError("SolveOptions.%s must be finite and nonnegative, got %r" % (name, value))
            if name.startswith("max_") and not isinstance(value, int):
                raise DomainError("SolveOptions.%s must be an integer, got %r" % (name, value))


@dataclass
class SolveReport:
    """Converged field plus diagnostics.

    Only a solve that meets its stop returns a report; every other exit
    raises, so a report carries no success flag.  ``residual_norm`` is the
    weighted-L2 norm of the discrete strong-form residual of the returned
    field.  A Newton or variational solve without ``init`` solves on the
    coarser meshes of the ring hierarchy first; the variational solvers, and
    Newton on a = b = 0 data, start the coarsest level (with ``init`` the
    only one) from a constrained descent.  ``iterations`` counts that
    descent's steps plus every converged level's Newton steps.  ``trace``
    holds one ``(residual, step)`` pair per accepted step: the finest
    level's Newton residual norms, or on an a = b = 0 Neumann level its
    merit (non-increasing by the Armijo rule), or the monotone solver's
    sup-norm increments.  ``factorizations`` counts the sparse LU factors
    (the coarse levels' Jacobians and the descent's one preconditioner; the
    monotone shift, unless the subsolution is an exact fixed point) and
    ``two_grid_cycles`` the conjugate-gradient iterations that solve Newton
    systems, one V-cycle each, over every level (cycles within a cycle are
    not counted again).  ``constraint_value`` is ``constraint_K`` of the
    field, ``constraint_A_p1`` for P1, bit for bit, read from the solve's
    record, and ``functional_value`` its energy, ``functional_I_p2`` or
    ``functional_I_p1`` (``_report``).  On an a = b = 0 Neumann level Newton
    steps on a bordered system (``_newton_loop``), whose merit adds a
    constraint row to the residual; ``residual_norm`` is that of the
    returned field alone on every route.  After a restart of an a = b = 0
    finest level from its own descent (``_solve_newton``), ``iterations``
    also counts the rejected attempt's Newton steps (unless it raised
    without a count, as ``SingularJacobian`` does) and the second descent's
    steps, the counts include both attempts' factors and cycles, and
    ``trace`` is the restart's.
    """

    field: DiskField
    iterations: int
    residual_norm: float
    constraint_value: float
    multiplier: float | None
    functional_value: float
    trace: list = dataclass_field(repr=False, default_factory=list)
    factorizations: int = 0
    two_grid_cycles: int = 0


# a descent starts on this many rings or more: beyond the existence window a
# coarser minimizer can lead up to another, higher critical point
_DESCENT_MIN_RINGS = 8
# a nested level below the finest with _TWO_GRID_MIN_RINGS rings or more
# stops at this fraction of its start's residual when that is above
# Newton's tolerance: the level above starts further off than that anyway
_COARSE_STOP_FRACTION = 1e-3
# a nested level solves its Newton systems by conjugate gradients, one
# V-cycle per iteration, from this many rings on: damped Jacobi sweeps
# (count and damping) before and after each coarse correction, at most
# _TWO_GRID_MAX_CYCLES iterations per system, each to a weighted residual of
# _TWO_GRID_FRACTION times the level's Newton tolerance
_TWO_GRID_MIN_RINGS = 16
_TWO_GRID_SWEEPS = 2
_TWO_GRID_DAMPING = 0.6
_TWO_GRID_MAX_CYCLES = 25
_TWO_GRID_FRACTION = 0.1
# Armijo backtracking of the Newton and descent line searches: the
# sufficient-decrease slope and the steps tried, 1, 1/2, ..., 2^-20
_ARMIJO_SLOPE = 1e-4
_STEPS = tuple(0.5**k for k in range(21))


def _weighted_norm(res, weights):
    """L2(T)-weighted norm of the nodal strong residual ``res_i = F_i / w_i`` on the leading rows, one per weight.

    ``weights`` covers a record's unknowns; a pinned row, beyond them, has a
    zero residual and is not read, so the sum keeps the unknowns' order.
    """
    res = res[:weights.size]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.sqrt(np.sum(res * res / weights))
    return float(out)


def _factorize(matrix):
    """SuperLU factor of a structurally symmetric matrix.

    Every matrix the solvers factor is a record's stiffness plus a diagonal
    (``_shifted``: Newton Jacobians, the descent preconditioner, the
    monotone shift), so its pattern is symmetric: the graph of the mesh
    nodes.  SuperLU orders such a pattern by minimum degree on ``A + A^T``
    (``MMD_AT_PLUS_A``), which leaves about two thirds of the fill of its
    default COLAMD, an order for the columns of an unsymmetric matrix.
    ``SymmetricMode`` applies that one order to the rows and the columns,
    and a diagonal pivot threshold of 0.01 keeps the diagonal as the pivot
    unless it is below 1% of the largest entry in its column, so the
    elimination follows the order chosen.
    """
    try:
        return splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                    options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularJacobian("sparse factorization failed: %s" % exc) from exc


def _newton_loop(eq, v0, opts, counts, coarse=None, stop_fraction=0.0):
    """Damped Newton on the core equation ``eq``, Armijo backtracking on its weighted residual norm.

    Each step solves ``J delta = -F``, ``J = S + diag(w e^v)``, and takes
    the first of the steps ``_STEPS``, 1, 1/2, ..., 2^-20, whose trial
    residual passes the Armijo test; a trial whose residual overflows to
    inf or nan fails it and is backtracked, and a step with no passing
    trial stalls the loop.  It solves ``J x = F`` and negates ``x`` in
    place, which is exact.  Every solve with ``J`` takes one path
    (``linear``).  With ``coarse``, the prolongation ``P`` from the level
    below, that level's pin row and its coarse solve, ``J`` is an operator
    on the record (``_Jacobian``), no matrix: conjugate gradients
    preconditioned by cycles on it (``_cycle``) solve the step
    (``_cycled_solve``).  Only once they miss their target, or without
    ``coarse``, is ``J`` built (``_shifted``) and factored, on its leading
    block ``J[:k, :k]``, the unknowns' rows and columns, and the step's
    other solves use that one factor.  ``v0`` and every update hold a
    value per node, zero on the pinned rows ``k:`` of ``eq``; ``v0`` is not
    written, and it is returned if no step is taken.  The loop keeps no
    name for ``v0`` beside ``v``, so its first step frees the start unless
    the caller holds it, nor for a step's direction while it solves the
    next.  Every norm is weighted by the record's ``W``, which covers the
    unknowns.  Newton stops at the residual ``tol_abs + tol_rel *
    min(r0, ||c| + |w e^v0||)``: ``r0`` the residual of
    the zero field, ``c + w``, and the other the size of the terms that
    must cancel at the start, read once.  Data ``lam (f, g)`` on a Neumann
    record have the field ``v - ln(lam)``, whose terms are those of ``v``,
    so a start near the field stops where the unscaled solve stops, while
    ``r0`` grows with ``lam``: a Newton stop should not change when the
    problem is rescaled (Deuflhard, *Newton Methods for Nonlinear
    Problems*, 2004, ch. 2).  The ``min`` keeps the stop never looser than
    the data-only one, so a start far off cannot loosen it, and ``tol_rel``
    times the terms lies far above their float64 roundoff.  A coarse level
    of a nested solve (``_solve_newton``) passes ``stop_fraction`` and
    stops at that fraction of its start's residual if that is larger.

    On an a = b = 0 record (``Record.zero_linear``: ``c`` all zero and no
    pinned row), ``S v + w e^v`` tends to zero along the constant fields
    ``v -> -inf`` and no solution lies there.  Newton then steps on the
    optimality system of the descent's own problem, min ``0.5 u'Su`` on
    {``sum(w e^u) = 0``, ``W u = 0``} (Nocedal & Wright, *Numerical
    Optimization*, 2006, ch. 18): ``S u + kappa w e^u + mu W = 0``,
    ``sum(w e^u) = 0`` and ``W u = 0``, with ``v = u + ln(kappa)``.  So
    ``u`` is ``v`` less its ``W``-mean, and the first rows read ``F(v) + mu
    W``.  Summing them gives ``mu = 0`` at every root, and the valley, ``u
    = 0`` and ``kappa -> 0``, is no root, as ``sum(w) > 0`` (``_admit``).
    Block elimination solves the step through ``linear``.  ``J 1 = w e^v``
    on a Neumann record, so beside ``J x = F`` only ``J y = W`` is solved,
    and the new ``mu`` is the one whose step ``delta - mu y`` zeroes the
    linearized constraint.  That ``mu`` is second order near a root, so
    ``y`` is solved to a tenth of ``W``'s own norm.  The step's ``W``-mean
    is ``kappa``'s relative step: ``kappa`` is multiplied by 1 plus the
    step times it, so it stays positive, and ``mu`` is carried and moved
    with the step.  The line search reads the merit ``hypot(|F + mu W|, s
    sum(w e^u))``, norms weighted, with the row scale ``s = r0 mean(S_ii)
    / sum(|w|)^2`` read from the record alone: the row is free of data
    scaled by ``lam``, it scales as ``|F|`` does under the dilation of the
    torus, and it reads nothing of the start.  The stop on ``|F|`` is the
    one above, and the constraint row must also fall to half its value at
    zero, the valley's, whatever the options.  The rows of ``F`` sum to
    the constraint in ``v``, so the residual stop sets the accuracy, and
    the half keeps a field near the valley, whose ``u`` is near zero, from
    stopping there.  ``trace`` then holds the merit.

    ``counts``, a ``Counter`` of ``SolveReport``'s count fields, gains the
    loop's.  A ``NonConvergence`` carries the loop's steps.  Returns ``(v,
    res, trace, solve)``: ``res`` the weighted norm of ``F(v)`` on every
    route, ``trace`` one entry more than the steps taken, ``solve`` the
    last step's factor as a ``_leading_solve``, or None if that step
    cycled or no step was taken.
    """
    weights, k, bordered = eq.W, eq.k, eq.zero_linear
    total, r0 = float(np.sum(weights)), _weighted_norm(eq.c + eq.w, weights)
    # the constraint row's scale: r0 times mean(S_ii) / sum|w|, a multiplier read from the record, over sum|w|
    row_scale = r0 * float(np.mean(eq.S.data[eq.diagonal])) / float(np.sum(np.abs(eq.w))) ** 2 if bordered else 0.0

    def residual(v, mu):
        F = _residual(eq, v)
        res = _weighted_norm(F, weights)
        if not bordered:
            return F, res, res, 0.0
        constraint = float(np.sum(_exp_terms(eq, v - weighted_sum(weights, v) / total)))  # sum(w e^u)
        return F, res, math.hypot(_weighted_norm(F + mu * weights, weights), row_scale * constraint), constraint

    v, mu, v0 = v0, 0.0, None  # v rebound by each step, never written; v0 unbound, so a step frees the start
    F, res, merit, constraint = residual(v, mu)
    if not math.isfinite(merit):
        raise DomainError("initial iterate produces a non-finite residual")
    scale = min(r0, _weighted_norm(np.abs(eq.c) + np.abs(_exp_terms(eq, v)), weights))
    tol = max(opts.tol_abs + opts.tol_rel * scale, stop_fraction * res)
    # the constraint row stops at half its value at zero, the valley's: its roots are F's, whose stop sets the accuracy
    tol_constraint = 0.5 * abs(float(np.sum(eq.w)))
    solve = None
    trace = [(merit, 0.0)]  # one entry more than the steps taken
    while not (done := res <= tol and abs(constraint) <= tol_constraint) and len(trace) <= opts.max_iter:
        solve = delta = None  # freed before the next factor and the next solve
        shift = _exp_terms(eq, v)
        cycle = None if coarse is None else _cycle(J := _Jacobian(eq, shift), *coarse)

        def linear(rhs, target):
            """``J x = rhs``: by cycles to ``target``, or else by the step's one factor."""
            nonlocal solve
            if solve is None and cycle is not None:
                x, cycles = _cycled_solve(J, rhs, cycle, weights, target)
                counts["two_grid_cycles"] += cycles
                if x is not None:
                    return x
            if solve is None:
                solve = _leading_solve(_factorize(_shifted(eq, shift)[:k, :k]), k)
                counts["factorizations"] += 1
            return solve(rhs)

        delta = linear(F, _TWO_GRID_FRACTION * tol)
        np.negative(delta, out=delta)  # J delta = -F, exactly
        mu_new, kappa_step = mu, 0.0
        if bordered:  # delta - mu' y, J y = W, with the mu' that zeroes the linearized constraint
            y = linear(weights, _TWO_GRID_FRACTION * math.sqrt(total))
            g = float(np.sum(shift))
            mu_new = ((g + weighted_sum(shift, delta) - g * weighted_sum(weights, delta) / total)
                      / (weighted_sum(shift, y) - g * weighted_sum(weights, y) / total))
            delta -= mu_new * y
            kappa_step = weighted_sum(weights, delta) / total  # kappa's relative step
        if not np.all(np.isfinite(delta)):
            raise SingularJacobian("Newton direction is non-finite")
        for step in (t for t in _STEPS if t * kappa_step > -1.0):  # kappa stays positive
            v_trial, mu_trial = v + step * delta, mu + step * (mu_new - mu)
            if bordered:  # kappa times 1 + step * kappa_step, not plus
                v_trial += math.log1p(step * kappa_step) - step * kappa_step
            F_trial, res_trial, merit_trial, constraint_trial = residual(v_trial, mu_trial)
            # a trial residual of inf or nan fails the comparison
            if merit_trial <= (1.0 - _ARMIJO_SLOPE * step) * merit:
                break
        else:
            raise NonConvergence("Newton line search stalled at residual %g" % merit, iterations=len(trace) - 1)
        v, mu, F, res, merit, constraint = v_trial, mu_trial, F_trial, res_trial, merit_trial, constraint_trial
        trace.append((merit, step))
    if not done:
        raise NonConvergence("Newton did not reach tolerance %g in %d iterations (residual %g)"
                             % (tol, opts.max_iter, res), iterations=len(trace) - 1)
    return v, res, trace, solve


def _leading_solve(lu, k):
    """``lu``'s solve, a factor of a leading block ``[:k, :k]``, on a vector of every node: zero on rows ``k:``."""
    def solve(r):
        x = np.zeros_like(r)
        x[:k] = lu.solve(r[:k])
        return x

    return solve


class _Jacobian:
    """Newton's ``J = S + diag(shift)``, ``shift = w e^v``, as an operator on a record: no matrix is built.

    ``J x`` (``product``) is ``S x + shift * x`` on the unknowns, the
    leading ``k`` rows, and ``x`` on the pinned rows ``k:``: the product of
    ``_shifted(eq, shift)`` with ``x``, its terms summed in another order.
    ``jacobi`` holds the damped Jacobi weights ``_TWO_GRID_DAMPING / (S_ii
    + shift_i)`` on the unknowns and ``_TWO_GRID_DAMPING`` on the unit rows
    ``k:``, with the bits they have on ``_shifted``'s diagonal.  So a cycled
    Newton step, and the cycle a level hands up, hold two vectors beside
    the record, not a copy of ``S.data``.
    """

    def __init__(self, eq, shift):
        self.S, self.shift, self.k = eq.S, shift, eq.k
        self.jacobi = eq.S.data[eq.diagonal]
        self.jacobi += shift
        self.jacobi[eq.k:] = 1.0
        np.divide(_TWO_GRID_DAMPING, self.jacobi, out=self.jacobi)

    def product(self, x, out):
        """``J x`` written into ``out``, another vector than ``x``, and returned."""
        np.multiply(self.shift, x, out=out)
        out += _sparse_product(self.S, x)
        out[self.k:] = x[self.k:]
        return out


def _cycle(J, P, coarse_k, coarse_solve):
    """One cycle on ``J``, a ``_Jacobian``: the map from a residual ``r`` to a correction ``x``.

    From ``x = 0``, ``_TWO_GRID_SWEEPS`` damped Jacobi sweeps, the coarse
    correction ``x += P coarse_solve(R r)``, with ``P`` the prolongation
    from the level below and ``R = P.T``, and as many sweeps again, each on
    the residual ``r - J x``.  A residual zero on ``J``'s pinned rows ``k:``
    gets a correction zero there: ``R r`` is zeroed on the level below's
    pinned rows ``coarse_k:`` and ``x`` on ``k:`` after the coarse
    correction, and ``J``'s unit rows keep the sweeps at zero there.  On the
    unknowns this is bit for bit the cycle on the leading blocks: a pinned
    entry adds only zeros to the sparse products.  The sweeps damp the
    error that oscillates on this mesh; the rest is smooth, and the level
    below resolves it with the ``coarse_solve`` it hands up
    (``_solve_newton``).  When that is itself a cycle, the recursion is a
    V-cycle.  The sweeps after the correction mirror those before it, and
    ``J``, symmetric on the unknowns, has a coarse solve symmetric on the
    level below's, so the cycle is a symmetric map on the unknowns: a
    preconditioner for conjugate gradients.  ``R`` is a CSC view of ``P``'s
    arrays, so the hierarchy holds each transfer once, and ``R @ x`` adds
    each output's terms in the column order of a CSR copy of the transpose,
    so it has that product's bits.  Each sweep writes its residual, and
    then its Jacobi correction, into one vector.
    """
    R, k = P.T, J.k

    def cycle(r):
        x, res = np.zeros_like(r), r.copy()
        for sweep in range(2 * _TWO_GRID_SWEEPS + 1):
            if sweep:
                np.subtract(r, J.product(x, res), out=res)
            if sweep == _TWO_GRID_SWEEPS:
                coarse_res = _sparse_product(R, res)
                coarse_res[coarse_k:] = 0.0
                x += _sparse_product(P, coarse_solve(coarse_res))
                x[k:] = 0.0
            else:
                res *= J.jacobi
                x += res
        return x

    return cycle


def _cycled_solve(J, rhs, cycle, weights, target):
    """``J x = rhs`` by conjugate gradients, preconditioned with one ``cycle`` per iteration; ``J`` a ``_Jacobian``.

    A V-cycle preconditioning a Krylov method takes fewer cycles to a
    target than the cycles iterated alone.  The Newton Jacobian can be
    indefinite (P2's is on some data), so a negative curvature ``d' J d``
    goes on; only a breakdown, a zero or non-finite curvature or a zero
    ``r' cycle(r)``, gives up.  A result is accepted only once the true
    residual ``rhs - J x`` meets the weighted ``target``; the
    recursive one only says when to compute it, and it replaces the
    recursive one if it misses.  ``_newton_loop`` sets the target at a tenth
    of its own stop, so on a coarse level that has left the data-only
    reference for a fraction of its start's residual (``_solve_newton``),
    the target is as loose: a linear solve finer than the Newton step
    needs would buy the level above nothing.  Inner products are
    ``weighted_sum``s over the unknowns, the entries that ``weights``
    covers; the rest, a record's pinned rows, stay zero.  The residual
    ``r``, the direction ``d`` and its product ``q = J d`` are updated in
    place, and ``rhs`` is not written.  Returns ``(x,
    iterations)``, with ``x`` None on a breakdown or if
    ``_TWO_GRID_MAX_CYCLES`` iterations miss the target.
    """
    x, r, q = np.zeros_like(rhs), rhs.copy(), np.empty_like(rhs)
    d = rz = None
    k = weights.size
    for iterations in range(1, _TWO_GRID_MAX_CYCLES + 1):
        z = cycle(r)
        rz, rz_old = weighted_sum(r[:k], z[:k]), rz
        if d is None:
            d = z
        else:  # d = z + (rz / rz_old) d
            d *= rz / rz_old
            d += z
        del z  # freed before the next cycle
        J.product(d, q)
        curvature = weighted_sum(d[:k], q[:k])
        if rz == 0.0 or curvature == 0.0 or not math.isfinite(curvature):
            return None, iterations
        alpha = rz / curvature
        x += alpha * d
        r -= alpha * q
        if _weighted_norm(r, weights) <= target:
            np.subtract(rhs, J.product(x, r), out=r)
            if _weighted_norm(r, weights) <= target:
                return x, iterations
    return None, _TWO_GRID_MAX_CYCLES


def _sparse_product(matrix, x):
    # scipy multiplies a sparse matrix by a vector without BLAS
    return matrix @ x


# ---------------------------------------------------------------------------
# The core: S v + c + w e^v = 0
# ---------------------------------------------------------------------------

class Record(NamedTuple):
    """The core equation of one level or solve: ``S v + c + w e^v = 0`` on the leading ``k`` rows (``_equation``).

    ``W`` holds the residual weights of the ``k`` unknowns: a residual
    ``F`` has the norm ``sqrt(sum(F_i^2 / W_i))`` (``_weighted_norm``).
    Newton's stop and line search, the descent's preconditioner, gauge and
    density shift, the monotone route's scores and both residual norms read
    it.
    """

    S: sp.csr_matrix
    c: np.ndarray
    w: np.ndarray
    W: np.ndarray
    diagonal: np.ndarray
    k: int

    @property
    def zero_linear(self):
        """a = b = 0 on a Neumann record: ``c`` all zero and no pinned row."""
        return self.k == self.c.size and not np.any(self.c)


def _equation(mesh, p, prob, dirichlet=False):
    """The ``Record`` of the public problem ``prob``: stiffness, terms, weights and pin row, once per level or solve.

    ``S`` and ``diagonal``, the index of each diagonal entry in ``S.data``,
    are ``assemble``'s, cached once per mesh and geometry for every record;
    this is the one function of ``solvers`` that reads ``.stiffness`` and
    the masses.  A ``ProblemP1`` enters as ``prob.as_p2()``, its terms
    built from that copy, which the record does not keep, and is weighed by
    the volume mass ``M``; a ``ProblemP2`` is weighed by ``M + M_b``.  P1
    over every node (the variational route) keeps ``M``: its descent's
    preconditioner ``S + diag(W)`` is built on it.  The unknowns are the
    leading ``k`` nodes: a Dirichlet problem's interior nodes
    (``n_interior``), else every node, and ``W`` covers them.  The rows
    ``k:``, the boundary's, come last and are pinned: ``_residual`` is zero
    there, and ``_shifted`` puts unit rows there as ``_Jacobian`` does, so a
    field zero on them stays zero, and on the unknowns every product has
    the bits of the leading block ``S[:k, :k]``.
    """
    ops, p1, k = assemble(mesh, p), isinstance(prob, ProblemP1), mesh.n_interior if dirichlet else mesh.n_nodes
    c, w = (prob.as_p2() if p1 else prob).terms(ops)
    W = ops.volume_mass if p1 else ops.volume_mass + ops.boundary_mass
    return Record(ops.stiffness, c, w, W[:k], ops.diagonal, k)


def _exp_terms(eq, v):
    """``w e^v``: the Jacobian's diagonal and the constraint normal."""
    # line-search internals want inf (step rejected), not an exception
    with np.errstate(over="ignore", invalid="ignore"):
        return eq.w * np.exp(v)


def _residual(eq, v):
    """``F(v) = S v + c + w e^v``, zero on the pinned rows ``k:``."""
    F = _sparse_product(eq.S, v) + eq.c + _exp_terms(eq, v)
    F[eq.k:] = 0.0
    return F


def _shifted(eq, diagonal):
    """``S + diag(diagonal)``: ``S``'s data with ``diagonal`` added at its stored diagonal, on ``S``'s structure.

    The one builder of every matrix the solvers factor: Newton's Jacobian
    (``w e^v``), the descent's preconditioner (its residual weights) and the
    monotone shift (``|w| e^super``).  Bit for bit ``S + sp.diags(diagonal)``
    on the rows of the unknowns; the pinned rows ``k:``, the trailing ones,
    are unit rows.
    """
    S, stored, k = eq.S, eq.diagonal, eq.k
    data = S.data.copy()
    data[stored] += diagonal
    data[S.indptr[k]:] = 0.0
    data[stored[k:]] = 1.0
    return sp.csr_matrix((data, S.indices, S.indptr), shape=S.shape)


def _admit(mesh, p, prob, dirichlet=False):
    """Decide the data of a public solve once and build its record: warn outside the window, raise if no field exists.

    Returns the finest ``Record`` of the public problem ``prob``
    (``_equation``), a Dirichlet one if ``dirichlet``: the one record of the
    solve, which the Newton walk takes as its finest level and the monotone
    route and the report read.  It is built before anything else, so on a
    cold mesh the finest assembly's peak sits on no level link or coarse
    operator yet.  The window reads P1's data as ``prob.as_p2()``, a = gamma
    and b = 0.  For a, b >= 0, not both zero, a field exists if ``0 < R < 1
    / (2 mu_best)`` in the mode of the problem the method solves:
    ``interior_dirichlet`` if ``dirichlet`` (P1 Newton), else
    ``interior_full`` with zero boundary data (P2 so, and P1 solved over
    every node by the variational route) or ``boundary_trace``.  A Neumann
    record's rows sum to ``K(v) = r_h + sum(w e^v)``, ``r_h = sum(c)``, so
    some ``w_i`` must have the sign opposite to ``r_h``; on an a = b = 0
    record (``Record.zero_linear``, as the solve reads it), ``w`` needs both
    signs and ``sum(w) = int(f) + bint(g) > 0``, its value ``int(e^-v
    |grad v|^2)`` at every solution.  With ``r_h < 0`` and ``w`` of both
    signs the energy is unbounded below on {K = 0}.  A Dirichlet record has
    no row-sum condition.
    """
    eq = _equation(mesh, p, prob, dirichlet)
    prob = prob.as_p2() if isinstance(prob, ProblemP1) else prob
    if prob.a >= 0.0 and prob.b >= 0.0 and (prob.a, prob.b) != (0.0, 0.0):
        mode = "interior_dirichlet" if dirichlet else (
            "interior_full" if np.all(prob.g.values[mesh.boundary_nodes] == 0.0) else "boundary_trace")
        bound = 1.0 / (2.0 * mu_best(p, mode))
        if not 0.0 < prob.R(p) < bound:
            warnings.warn("R=%g outside the sufficient existence window (0, %g) of the a, b >= 0 regime"
                          % (prob.R(p), bound), ExistenceWindowWarning, stacklevel=3)
    if dirichlet:
        return eq
    c, w = eq.c, eq.w
    r_h = float(np.sum(c))
    both_signs = w.min() < 0.0 < w.max()
    # a total within 8 eps sum(|w|) of zero lies at the roundoff of its own sum: its sign means nothing
    if eq.zero_linear and (not both_signs or float(np.sum(w)) <= 8.0 * np.finfo(float).eps * float(np.sum(np.abs(w)))):
        raise InfeasibleError("a zero linear part needs exponential terms of both signs and positive total, "
                              "int(f) + bint(g) > 0 (for P1 with gamma = 0: int(f) < 0)")
    if not eq.zero_linear and not np.any(r_h * w < 0.0):
        raise InfeasibleError("a linear part of %g needs exponential terms of the opposite sign" % r_h)
    if r_h < 0.0 and both_signs:
        warnings.warn("linear part %g < 0 and exponential terms of both signs: the energy is unbounded below "
                      "on {K = 0}, so it has no global minimum" % r_h, ExistenceWindowWarning, stacklevel=3)
    return eq


def _solve_newton(mesh, p, prob, finest, init, opts, descent=False):
    """Damped Newton on the core equation of the public ``prob``, whose record on ``mesh`` is the gate's ``finest``.

    The finest level reads ``finest``, and each coarser level builds its
    own record (``_equation``) of ``prob`` restricted there, of the same
    kind, with its own residual weights; the walk reads no mass.  Every
    record holds the stiffness of all its level's nodes, as every level's
    field does; a Dirichlet record, whose unknowns ``k`` are the interior
    nodes, pins its boundary rows, so each field stays zero there.

    Without ``init`` this is the nested iteration of full multigrid: each
    mesh of 4 rings or more has the half-ring mesh below it
    (``coarse_mesh``), so the problem, with its data restricted there, is
    solved on the coarsest mesh first and then on each finer mesh from the
    solution below prolonged to it by ``coarse_mesh``'s prolongation, as it
    is; from ``init`` the finest level is the only one.  Newton's stop reads
    the size of the terms at that start (``_newton_loop``), so data scaled
    by ``lam`` stop where the unscaled data do.  A P1 problem stays a
    ``ProblemP1`` on every level, its ``gamma`` with ``f`` sampled
    (``coarse_mesh``'s sampling), and only its record reads it as
    ``as_p2()``.  A P2 problem's data are read where its equation reads
    them, by one rule for every ring count: ``f`` sampled; ``g`` zero at the
    interior nodes and, at the boundary nodes, the trace of ``g`` above
    sampled and divided by the sampled boundary indicator, so ``g``'s
    interior values, which no equation reads, reach no level (under an odd
    ring count the sampling rows of coarse boundary nodes weight fine
    interior nodes; under an even one the indicator samples to 1).  The
    coarsest level starts from zero or ``init``, or with ``descent``
    (Neumann only; no level then has fewer than ``_DESCENT_MIN_RINGS`` rings
    but the mesh) where the constrained descent from there ends
    (``_descend``).  Each level hands its start to ``_newton_loop`` and
    keeps no name for it, so the loop's first step frees it.  A level whose
    solve fails hands nothing up, and the next starts as the coarsest does.
    On an a = b = 0 Neumann record (``Record.zero_linear``) every level's
    ``_newton_loop`` steps on its bordered system, which has no root down
    the constant valley.  A level below the finest with
    ``_TWO_GRID_MIN_RINGS`` rings or more stops at
    ``_COARSE_STOP_FRACTION`` of its start's residual if that is above
    Newton's tolerance: the next level's start lies further off.  A level of
    ``_TWO_GRID_MIN_RINGS`` rings or more with a coarse solve from below
    solves its Newton systems by cycled conjugate gradients, its
    prolongation that of ``coarse_mesh``, and hands up a cycle on its
    Jacobian at its solution: an operator on the level's record that holds
    the shift ``w e^v`` of that solution, not a matrix (``_Jacobian``).  Any
    other level factors each step and hands up its last factor.  Either goes
    up with the level's pin row.

    If the finest level raises after starting from the field handed up from
    below, on an a = b = 0 record with ``descent``, it runs once more as the
    coarsest level runs: from zero, through the descent, factoring each
    step.  Any other failure of the finest level is raised, a
    ``NonConvergence`` with the steps of every level and attempt.  Returns
    ``(v, residual_norm, iterations, trace, counts)``: the descents' and
    every converged level's steps, and after a restart the rejected
    attempt's too; the finest level's trace; every level's and attempt's
    counts.
    """
    dirichlet = finest.k < mesh.n_nodes
    levels = [(mesh, prob)]
    min_rings = _DESCENT_MIN_RINGS if descent else 0
    while init is None and (level := coarse_mesh(levels[-1][0])) is not None and level[0].n_rings >= min_rings:
        (fine, data), (coarse, sample, _) = levels[-1], level
        if isinstance(prob, ProblemP1):  # f sampled
            levels.append((coarse, ProblemP1(prob.gamma, DiskField(coarse, _sparse_product(sample, data.f.values)))))
            continue
        # f sampled; g read where the equation reads it: its boundary trace sampled, over the sampled indicator
        on_boundary = np.arange(fine.n_nodes) >= fine.n_interior
        f, g, share = _sparse_product(sample, np.stack([data.f.values, np.where(
            on_boundary, data.g.values, 0.0), on_boundary], axis=1)).T
        g[:coarse.n_interior], g[coarse.n_interior:] = 0.0, g[coarse.n_interior:] / share[coarse.n_interior:]
        levels.append((coarse, ProblemP2(prob.a, prob.b, DiskField(coarse, f), DiskField(coarse, g))))
    counts = Counter()
    v_2h = below = None  # the converged solution of the level below; its pin row and coarse solve
    iterations = 0
    schedule = levels[::-1]
    for level_mesh, level_prob in schedule:
        eq = finest if level_mesh is mesh else _equation(level_mesh, p, level_prob, dirichlet)
        rings = level_mesh.n_rings
        coarse = (coarse_mesh(level_mesh)[2], *below) if below is not None and rings >= _TWO_GRID_MIN_RINGS else None
        stop_fraction = _COARSE_STOP_FRACTION if level_mesh is not mesh and rings >= _TWO_GRID_MIN_RINGS else 0.0
        try:
            x0 = (_sparse_product(coarse_mesh(level_mesh)[2], v_2h) if v_2h is not None
                  else np.zeros(level_mesh.n_nodes) if init is None else init.values.copy())
            x0[eq.k:] = 0.0  # the pinned boundary
            if v_2h is None and descent:
                x0, descended = _descend(eq, x0, opts, counts)
                iterations += descended
            # the start handed over, x0 unbound: the loop holds it alone, and its first step frees it
            v, res, trace, solve = _newton_loop(eq, (x0, x0 := None)[0], opts, counts, coarse=coarse,
                                                stop_fraction=stop_fraction)
        except TorusBVPError as exc:
            if level_mesh is mesh:
                if isinstance(exc, NonConvergence):
                    iterations = exc.iterations = exc.iterations + iterations
                if v_2h is None or not (descent and eq.zero_linear):
                    raise
                schedule.append(schedule[-1])  # the finest level once more, started as the coarsest is
            v = below = None
        else:
            iterations += len(trace) - 1
            below = None if solve is None else (eq.k, solve)
            if coarse is not None and level_mesh is not mesh:  # the finest level's cycle would go unread
                below = (eq.k, _cycle(_Jacobian(eq, _exp_terms(eq, v)), *coarse))
        v_2h = v
    return v, res, iterations, trace, counts


def _descend(eq, v, opts, counts):
    """The coarsest level's start: ``v`` moved onto {K = 0} and down the energy ``0.5 v'Sv + sum(c v)``.

    A function of the level's record ``eq`` alone: the energy, the
    constraint, the gauge, the density shift and ``kappa`` are read from
    ``S``, ``c``, ``w`` and Newton's residual weights ``W``, ``M + M_b``,
    or ``M`` for P1.  The a = b = 0 case is the record's
    (``Record.zero_linear``); the descent runs on Neumann records only.
    Projected descent, preconditioned by ``S + diag(W)`` (one factor,
    ``_shifted``), takes at most ``max_descent_iter`` steps, each the first
    of ``_STEPS``, 1, 1/2, ..., 2^-20, whose projected trial passes the
    Armijo test on the energy; a trial energy of inf or nan fails it, and a step with no
    passing trial ends the descent.  Iterates stay on {K = 0},
    ``K(v) = r_h + sum(w e^v)``, ``r_h = sum(c)``: with (a, b) != 0 by the
    shift ``v + ln(-r_h / sum(w e^v))``.  The projection refuses a sum
    that is zero, not finite or of the sign of ``r_h``: such a trial is
    rejected, and a start takes the density shift on ``d = w / W``
    (``reach_exponential_target``).  With a = b = 0 every point takes the
    density shift, the ``W``-mean ``sum(W v) / sum(W)`` is pinned to zero,
    the gauge of the bordered Newton that follows (``u``, ``_newton_loop``),
    and the minimizer ``v`` is shifted by ``ln(kappa)``.  ``F(v + ln kappa) = S
    v + kappa w e^v`` is linear in ``kappa``, so ``kappa = -<S v, w e^v> /
    <w e^v, w e^v>``, inner products weighted by ``1 / W``, leaves
    Newton the least residual, one with no part along ``w e^v``; a
    ``kappa`` that is not positive raises ``DomainError``.
    Returns ``(v, iterations)``.
    """
    S, c, w, weights, case_zero = eq.S, eq.c, eq.w, eq.W, eq.zero_linear
    r_h, total = float(np.sum(c)), float(np.sum(weights))

    def energy(v):
        return 0.5 * weighted_sum(v, _sparse_product(S, v)) + weighted_sum(c, v)

    def project(v):
        if case_zero:
            return reach_exponential_target(w, weights, v, 0.0)
        e = float(np.sum(_exp_terms(eq, v)))
        if not math.isfinite(e) or e == 0.0 or np.sign(e) == np.sign(r_h):
            return None
        return v + math.log(-r_h / e)

    v_p = project(v)  # else no constant shift has the sign needed: shift along the density
    v = reach_exponential_target(w, weights, v, -r_h) if v_p is None else v_p

    precond = _factorize(_shifted(eq, weights))
    counts["factorizations"] += 1
    merit = energy(v)
    iterations = 0
    for _ in range(opts.max_descent_iter):
        grad = _sparse_product(S, v) + c
        normals = [_exp_terms(eq, v)]
        if case_zero:
            normals.append(weights)  # shift gauge: pin the weighted mean
        # preconditioned steepest descent made tangent to every normal x: x'd = 0
        pg, px = precond.solve(grad), [precond.solve(x) for x in normals]
        mu = np.linalg.solve(np.array([[weighted_sum(x, y) for y in px] for x in normals]),
                             np.array([weighted_sum(x, pg) for x in normals]))
        d = -(pg - sum(k * y for k, y in zip(mu, px)))
        slope = weighted_sum(grad, d)
        if not math.isfinite(slope) or slope >= 0.0:
            break
        dnorm = _weighted_norm(d * weights, weights)
        for step in _STEPS:
            v_t = project(v + step * d)
            if v_t is not None:
                if case_zero:
                    v_t = v_t - weighted_sum(weights, v_t) / total
                merit_t = energy(v_t)
                # a trial energy of inf or nan fails the comparison
                if merit_t <= merit + _ARMIJO_SLOPE * step * slope:
                    v, merit = v_t, merit_t
                    break
        else:
            break
        iterations += 1
        if dnorm * step <= 10.0 * opts.tol_abs:
            break
    if case_zero:  # the kappa of least residual S v + kappa w e^v in Newton's weights
        e = _exp_terms(eq, v)
        kappa = -weighted_sum(e / weights, _sparse_product(S, v)) / (weighted_sum(e / weights, e) or math.nan)
        if not kappa > 0.0:
            raise DomainError("multiplier %g is not positive: int(f) + bint(g) <= 0 on this level" % kappa)
        v = v + math.log(kappa)
    return v, iterations


def _report(mesh, p, prob, eq, v, iterations, res, multiplier, trace, counts):
    """A converged field with the constraint value and energy of its own problem.

    The constraint is the sum of the rows of the solve's record ``eq``,
    ``sum(c) + sum(w e^v)``, negated for P1: the sums of ``constraint_K``
    and ``constraint_A_p1``, with their ``exp_capped``, whose
    ``OverflowError`` above an exponent of 700 the report raises as they
    do.  The energy is ``functional_I_p1`` or ``functional_I_p2`` of the
    field.
    """
    out = DiskField(mesh, v)
    p1 = isinstance(prob, ProblemP1)
    constraint = float(np.sum(eq.c)) + weighted_sum(eq.w, exp_capped(v))  # the sum of the record's rows
    return SolveReport(
        field=out,
        iterations=iterations,
        residual_norm=res,
        constraint_value=-constraint if p1 else constraint,
        multiplier=multiplier,
        functional_value=(functional_I_p1 if p1 else functional_I_p2)(mesh, p, out, prob),
        trace=trace,
        **counts,
    )


# ---------------------------------------------------------------------------
# P1: Delta v + gamma = f e^v in T, v = 0 on the boundary
# ---------------------------------------------------------------------------

def p1_residual_norm(mesh: DiskMesh, p: TorusParams, prob: ProblemP1, field: DiskField,
                     natural: bool = False) -> float:
    """Weighted-L2 strong residual of the P1 equation.

    With ``natural=False`` only interior rows count, the unknowns of the
    Dirichlet record (its boundary rows are pinned); ``natural=True`` scores
    all rows (zero-flux stationarity of the variational path).
    """
    eq = _equation(mesh, p, prob, dirichlet=not natural)
    return _weighted_norm(_residual(eq, field.values), eq.W)


def solve_p1_newton(mesh: DiskMesh, p: TorusParams, prob: ProblemP1,
                    init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Damped Newton on the Dirichlet weak form of the P1 problem."""
    eq = _admit(mesh, p, prob, dirichlet=True)
    v, res, iterations, trace, counts = _solve_newton(mesh, p, prob, eq, init, opts or SolveOptions())
    return _report(mesh, p, prob, eq, v, iterations, res, None, trace, counts)


def solve_p1_variational(mesh: DiskMesh, p: TorusParams, prob: ProblemP1,
                         init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Constrained minimization of the P1 energy over {int(f e^v) = gamma Vol}.

    The coarsest level descends on half the P1 energy, ``0.5 |grad v|^2 +
    gamma int(v)``, and nested Newton takes its minimizer to the finest
    level, with residuals weighted by the volume mass.  It runs over the
    full nodal space, so the stationary field satisfies the interior
    equation with natural (zero-flux) boundary behavior.  For gamma = 0 the
    coarsest minimizer is shifted by ``ln(kappa)``, and the multiplier is
    ``kappa``, ``exp`` of the returned field's mean; otherwise the
    multiplier of ``f e^v`` is exactly 1.
    """
    eq = _admit(mesh, p, prob)
    v, res, iterations, trace, counts = _solve_newton(mesh, p, prob, eq, init, opts or SolveOptions(), descent=True)
    # kappa, or the core's -1 times the sign of -f e^v
    multiplier = math.exp(mean_value(mesh, p, DiskField(mesh, v))) if prob.gamma == 0.0 else 1.0
    return _report(mesh, p, prob, eq, v, iterations, res, multiplier, trace, counts)


# ---------------------------------------------------------------------------
# P2: Delta v + a + f e^v = 0 in T, dv/dn + b + g e^v = 0 on the boundary
# ---------------------------------------------------------------------------

def p2_residual_norm(mesh: DiskMesh, p: TorusParams, prob: ProblemP2, field: DiskField) -> float:
    """Weighted-L2 strong residual of both P2 equations (all rows)."""
    eq = _equation(mesh, p, prob)
    return _weighted_norm(_residual(eq, field.values), eq.W)


def solve_p2_newton(mesh: DiskMesh, p: TorusParams, prob: ProblemP2,
                    init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Damped Newton on the nonlinear Neumann weak form of the P2 problem.

    With a = b = 0 every level steps on the bordered system of
    ``_newton_loop``, the optimality system of the descent's problem, which
    has no root down the constant valley ``v -> -inf``, and with no
    ``init`` the coarsest level starts from the descent.  A coarse level
    that fails hands nothing up, so the next level starts from its own
    descent; a finest level that fails from the field handed up from below
    is solved once more from its own descent.
    """
    eq = _admit(mesh, p, prob)
    v, res, iterations, trace, counts = _solve_newton(mesh, p, prob, eq, init, opts or SolveOptions(),
                                                      descent=init is None and prob.a == prob.b == 0.0)
    return _report(mesh, p, prob, eq, v, iterations, res, None, trace, counts)


def solve_p2_variational(mesh: DiskMesh, p: TorusParams, prob: ProblemP2,
                         init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Constrained minimization of the P2 energy over {K = 0}.

    The coarsest level's minimizer (``_descend``) starts nested Newton on
    the P2 equation.  For a = b = 0 it is gauge-fixed to zero mean in
    Newton's weights ``M + M_b`` and shifted by ``ln(kappa)``, and
    ``kappa``, ``exp`` of the returned field's volume mean, is reported (as
    for P1 with gamma = 0).  With (a,
    b) != 0 the stationary point of the constrained problem satisfies the
    P2 weak form directly, and the multiplier reported is exactly -1.
    """
    eq = _admit(mesh, p, prob)
    v, res, iterations, trace, counts = _solve_newton(mesh, p, prob, eq, init, opts or SolveOptions(), descent=True)
    multiplier = math.exp(mean_value(mesh, p, DiskField(mesh, v))) if prob.a == prob.b == 0.0 else -1.0
    return _report(mesh, p, prob, eq, v, iterations, res, multiplier, trace, counts)


# ---------------------------------------------------------------------------
# Monotone sub/supersolution iteration (P2, a <= 0, b <= 0 regime)
# ---------------------------------------------------------------------------

def find_constant_bracket(mesh: DiskMesh, p: TorusParams, prob: ProblemP2):
    """Constant sub/supersolution pair for the a, b <= 0 regime.

    The subsolution needs ``a + f e^c <= 0`` and ``b + g e^c <= 0`` at every
    node; the supersolution reverses both.  Past the checks a zero constant
    has zero data and a negative one positive data, so the pair is the log
    of the min and the max of ``-const / coeff``; else ``NoBracket``.
    """
    if not (prob.a <= 0.0 and prob.b <= 0.0) or (prob.a == 0.0 and prob.b == 0.0):
        raise DomainError("constant brackets require a <= 0, b <= 0, not both zero")
    f = prob.f.values
    g = prob.g.values[mesh.boundary_nodes]
    ratios = []
    for coeff, const in ((f, prob.a), (g, prob.b)):
        if const == 0.0 and np.any(coeff > 0.0):
            raise NoBracket("positive data with zero linear part admit no constant subsolution")
        if const < 0.0:
            if float(coeff.min()) <= 0.0:
                raise NoBracket("nonpositive data cannot dominate a negative linear part")
            ratios.append(-const / coeff)
    if prob.a == 0.0 and float(f.min()) < 0.0:
        raise NoBracket("a = 0 with negative f admits no constant supersolution")
    if prob.b == 0.0 and float(g.min()) < 0.0:
        raise NoBracket("b = 0 with negative boundary data admits no constant supersolution")
    ratios = np.concatenate(ratios)
    return (DiskField.constant(mesh, math.log(float(ratios.min()))),
            DiskField.constant(mesh, math.log(float(ratios.max()))))


def solve_p2_monotone(mesh: DiskMesh, p: TorusParams, prob: ProblemP2,
                      sub: DiskField, super: DiskField,
                      opts: SolveOptions | None = None) -> SolveReport:
    """Monotone iteration between an ordered sub/supersolution pair.

    Each step is the defect correction ``v <- v - (S + W)^-1 F(v)`` on the
    core residual ``F``, with the shift ``W = diag(|w| e^super)`` read from
    the record: at each node it bounds the slope ``w e^v`` of the
    exponential term for ``v <= super``, so ``W v - w e^v`` is
    non-decreasing on the bracket, and ``S + W``, with ``S``'s nonpositive
    off-diagonal, has a nonnegative inverse.  The pair must meet the
    discrete inequalities ``F(sub) <= 0 <= F(super)`` nodewise, each row
    scored as ``F_i / W_i``, ``W = M + M_b``, and each inequality at its
    own field: ``F(sub)`` within ``1e-9 (1 + max_i (|c_i| + |w_i| e^sub_i)
    / W_i)``, ``F(super)`` within the same bound at ``super``.  A bound
    read at ``e^super`` for both would admit a false subsolution under a
    large supersolution.  Each bound is read from the record alone, so data
    that leave the equation unchanged (``g`` at interior nodes) get the
    same verdict.  Iterates from the subsolution are nodewise
    non-decreasing and stay below the supersolution (asserted every
    iteration).  Terminates when the weighted residual of the latest
    iterate meets the data-only stop, ``tol_abs + tol_rel * |c + w|``;
    the trace holds each step's sup-norm increment.  A stop on the
    increment would end early under a large shift, whose steps are small
    far from the solution.  The shift is factored once, at the first step
    whose residual is not exactly zero: a subsolution that solves the
    discrete equation exactly, as ``sub = super = 0`` does on ``a = b =
    -1``, ``f = g = 1``, returns in one step without a factor.
    """
    eq = _admit(mesh, p, prob)
    opts, weights = opts or SolveOptions(), eq.W
    lo, hi = sub.values, super.values
    slack = 1e-12 * (1.0 + float(np.max(np.abs(hi))) + float(np.max(np.abs(lo))))
    if np.any(lo > hi + slack):
        raise OrderingViolation("subsolution exceeds supersolution at %d nodes"
                                % int(np.sum(lo > hi + slack)))

    # discrete inequality check of the defining sub/supersolution conditions,
    # scored as nodewise strong residuals against the record's own scale
    tol_lo, tol_hi = (1e-9 * (1.0 + float(np.max((abs(eq.c) + abs(_exp_terms(eq, x))) / weights))) for x in (lo, hi))
    F_lo = _residual(eq, lo) / weights
    if np.any(F_lo > tol_lo):
        raise OrderingViolation("subsolution fails the discrete inequality (max violation %g)"
                                % float(np.max(F_lo)))
    F_hi = _residual(eq, hi) / weights
    if np.any(F_hi < -tol_hi):
        raise OrderingViolation("supersolution fails the discrete inequality (min value %g)"
                                % float(np.min(F_hi)))

    lu = None  # factored at the first nonzero residual, so an exact fixed point factors nothing
    v = lo.copy()
    F = _residual(eq, v)
    trace = []
    tol = opts.tol_abs + opts.tol_rel * _weighted_norm(eq.c + eq.w, weights)  # the data-only stop
    for iterations in range(1, opts.max_monotone_iter + 1):
        if lu is None and np.any(F):
            lu = _factorize(_shifted(eq, abs(_exp_terms(eq, hi))))
        v_new = v if lu is None else v - lu.solve(F)
        if np.any(v_new < v - slack):
            raise OrderingViolation("iterate decreased at %d nodes (shift too small?)"
                                    % int(np.sum(v_new < v - slack)))
        if np.any(v_new > hi + slack):
            raise OrderingViolation("iterate escaped above the supersolution at %d nodes"
                                    % int(np.sum(v_new > hi + slack)))
        trace.append((float(np.max(np.abs(v_new - v))), 1.0))
        v = v_new
        F = _residual(eq, v)
        res = _weighted_norm(F, weights)
        if res <= tol:
            break
    else:
        raise NonConvergence("monotone iteration did not contract below %g in %d steps"
                             % (tol, opts.max_monotone_iter), iterations=opts.max_monotone_iter)
    return _report(mesh, p, prob, eq, v, iterations, res, None, trace, Counter(factorizations=int(lu is not None)))
