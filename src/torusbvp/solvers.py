"""Solvers for the torus problems: damped Newton, constrained descent, monotone iteration.

Both model problems are one discrete equation, ``F(v) = S v + c + w e^v =
0``, with ``S`` the weighted stiffness and ``(c, w) = ProblemP2.terms``:
``c = M a + M_b b`` and ``w = M f + M_b g``, ``M`` and ``M_b`` the lumped
volume and boundary masses.  P2 is this equation on all nodes.  P1
(``Delta v + gamma = f e^v``) is its case ``a = gamma``, ``f -> -f``, ``b =
g = 0``, restricted to the interior nodes for the Dirichlet problem.  Each
solve, and each level of a nested Newton solve, builds the record ``(S, c,
w)`` once (``_equation``); a Dirichlet level's record holds only the rows
and columns of its interior nodes, its unknowns.  Every method reads it:
Newton's residual ``F``, Jacobian ``S + diag(w e^v)`` and nested
relaxation, the constrained descent's gradient ``S v + c`` and projection
sum ``sum(w e^v)``, and the monotone iteration's defect correction ``v <- v
- (S + W)^-1 F(v)``.  The public solvers map their data onto the equation,
check their own feasibility and existence windows, and fill their reports.

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
)
from .functionals import (
    ProblemP1,
    ProblemP2,
    constraint_A_p1,
    constraint_K,
    data_total,
    functional_I_p1,
    functional_I_p2,
    multiplier_kappa,
    reach_exponential_target,
)
from .geometry import TorusParams
from .mesh import DiskField, DiskMesh, assemble, coarse_mesh, prolong, transfer_pair, weighted_sum


@dataclass
class SolveOptions:
    """Iteration controls, each finite and nonnegative; defaults are the desk-scale settings."""

    tol_abs: float = 1e-10
    tol_rel: float = 1e-10
    max_iter: int = 50
    max_descent_iter: int = 5000
    max_monotone_iter: int = 500

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 <= value < math.inf:
                raise DomainError("SolveOptions.%s must be finite and nonnegative, got %r" % (name, value))


@dataclass
class SolveReport:
    """Converged field plus diagnostics.

    ``residual_norm`` is the weighted-L2 norm of the discrete strong-form
    residual of the returned field.  A Newton solve without ``init`` first
    solves on the coarser meshes of the ring hierarchy, and starts each
    level from the solution below it, Richardson-extrapolated, prolonged
    and relaxed on the new nodes; its ``iterations`` counts the steps of
    every level that converged and its ``trace`` is the finest level's.
    ``trace`` holds one ``(residual_or_merit, step)`` pair per accepted
    iteration: the Newton solvers record residual norms (non-increasing by
    the Armijo rule), the descent solvers record the core energy ``0.5
    |grad v|^2 + a int(v) + b bint(v)`` of the problem they solve (for P1
    that is half of ``functional_I_p1``), and the monotone solver records
    sup-norm increments.  ``factorizations`` counts the sparse LU factors
    and ``two_grid_cycles`` the cycles of the finest nested level's linear
    solves, both over every level.
    """

    field: DiskField
    converged: bool
    iterations: int
    residual_norm: float
    constraint_value: float
    multiplier: float | None
    functional_value: float
    trace: list = dataclass_field(repr=False, default_factory=list)
    factorizations: int = 0
    two_grid_cycles: int = 0


# nonlinear Jacobi sweeps on the new nodes of each nested Newton start
_RELAX_SWEEPS = 8
# the finest nested level solves its Newton systems by two-grid cycles from
# this many rings on: damped Jacobi sweeps (count and damping) before and
# after each coarse correction, at most _TWO_GRID_MAX_CYCLES cycles per
# system, each to a weighted residual of _TWO_GRID_FRACTION times Newton's
# tolerance
_TWO_GRID_MIN_RINGS = 16
_TWO_GRID_SWEEPS = 2
_TWO_GRID_DAMPING = 0.6
_TWO_GRID_MAX_CYCLES = 25
_TWO_GRID_FRACTION = 0.1
# Armijo backtracking of the Newton and descent line searches: the step
# factor, the sufficient-decrease slope and the smallest step tried
_ARMIJO_FACTOR = 0.5
_ARMIJO_SLOPE = 1e-4
_MIN_STEP = 2.0**-20


def _exp_unguarded(x):
    # line-search internals want inf (step rejected), not an exception
    with np.errstate(over="ignore"):
        return np.exp(x)


def _weighted_norm(res, weights):
    """L2(T)-weighted norm of the nodal strong residual ``res_i = F_i / w_i``."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.sqrt(np.sum(res * res / weights))
    return float(out)


def _factorize(matrix):
    """SuperLU factor of a structurally symmetric matrix.

    Every matrix the solvers factor is the weighted stiffness plus a diagonal
    (Newton Jacobians, descent preconditioners, the monotone shift) or its
    interior block, so its pattern is symmetric: the graph of the mesh
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


def _newton_loop(eq, v0, weights, opts, counts, trace=None, coarse=None, keep_factor=False):
    """Damped Newton on the core equation ``eq``, Armijo backtracking on its weighted residual norm.

    Each step solves ``J delta = -F``.  With ``coarse``, the level below's
    last factor and the ``transfer_pair`` to it, two-grid cycles solve it
    (``_two_grid``) and ``J`` is factored only if they miss their target.
    ``v0``, ``weights`` and every update live on the unknowns of ``eq``, its
    rows.  Newton stops at the residual ``tol_abs + tol_rel * r0``, ``r0``
    the residual of the zero field.  That reference depends on the data
    alone, so no start moves the tolerance: a start far off, such as a
    stalled descent's, cannot loosen it, and a start near the solution
    cannot push it below the float64 floor of the residual.  ``counts``, a
    ``Counter`` of ``SolveReport``'s count fields, gains the loop's.  Returns
    ``(v, res, iterations, trace, lu)``: with ``keep_factor``, ``lu`` is the
    last factor made; otherwise, or if none was made, it is None, and each
    factor is freed after its one solve.
    """
    def residual(v):
        F = _residual(eq, v)
        return F, _weighted_norm(F, weights)

    v = v0.copy()
    trace = trace if trace is not None else []
    F, res = residual(v)
    if not math.isfinite(res):
        raise DomainError("initial iterate produces a non-finite residual")
    tol = opts.tol_abs + opts.tol_rel * residual(np.zeros_like(v))[1]
    lu = None
    trace.append((res, 0.0))
    iterations = 0
    while res > tol and iterations < opts.max_iter:
        lu = None  # a kept factor is the last step's only
        J = _jacobian(eq, v)
        delta = None
        if coarse is not None:
            delta, cycles = _two_grid(J, -F, *coarse, weights, _TWO_GRID_FRACTION * tol)
            counts["two_grid_cycles"] += cycles
        if delta is None:
            lu = _factorize(J)
            counts["factorizations"] += 1
            delta = -lu.solve(F)
            if not keep_factor:
                lu = None  # it served its one solve
        if not np.all(np.isfinite(delta)):
            raise SingularJacobian("Newton direction is non-finite")
        step = 1.0
        accepted = False
        while step >= _MIN_STEP:
            v_trial = v + step * delta
            F_trial, res_trial = residual(v_trial)
            if math.isfinite(res_trial) and res_trial <= (1.0 - _ARMIJO_SLOPE * step) * res:
                accepted = True
                break
            step *= _ARMIJO_FACTOR
        if not accepted:
            raise NonConvergence("Newton line search stalled at residual %g" % res)
        v, F, res = v_trial, F_trial, res_trial
        iterations += 1
        trace.append((res, step))
    if res > tol:
        raise NonConvergence("Newton did not reach tolerance %g in %d iterations (residual %g)"
                             % (tol, opts.max_iter, res))
    return v, res, iterations, trace, lu


def _two_grid(matrix, rhs, lu, transfer, weights, target):
    """``matrix x = rhs`` solved by two-grid cycles to the weighted residual ``target``.

    A cycle is ``_TWO_GRID_SWEEPS`` damped Jacobi sweeps, the coarse
    correction ``x += P lu^-1 R r``, with ``(P, R)`` the ``transfer`` and
    ``lu`` a factor of the level below's Jacobian, and as many sweeps again.
    The sweeps damp the error that oscillates on this mesh; the rest is
    smooth, and the level below resolves it.  Returns ``(x, cycles)``, with
    ``x`` None if ``_TWO_GRID_MAX_CYCLES`` cycles miss the target.
    """
    P, R = transfer
    jacobi = _TWO_GRID_DAMPING / matrix.diagonal()
    x, r, update = np.zeros_like(rhs), rhs.copy(), np.empty_like(rhs)  # reused by every sweep
    for cycle in range(1, _TWO_GRID_MAX_CYCLES + 1):
        for sweep in range(2 * _TWO_GRID_SWEEPS + 1):
            if sweep == _TWO_GRID_SWEEPS:
                x += _sparse_product(P, lu.solve(_sparse_product(R, r)))
            else:
                x += np.multiply(jacobi, r, out=update)
            np.subtract(rhs, matrix @ x, out=r)
        if _weighted_norm(r, weights) <= target:
            return x, cycle
    return None, _TWO_GRID_MAX_CYCLES


def _sparse_product(matrix, x):
    # scipy multiplies a sparse matrix by a vector without BLAS
    return matrix @ x


# ---------------------------------------------------------------------------
# The core: S v + c + w e^v = 0
# ---------------------------------------------------------------------------

def _equation(ops, prob, free=slice(None)):
    """``(S, c, w)``: the stiffness and ``prob.terms`` on the ``free`` nodes, built once per nested level or solve.

    A Dirichlet problem's unknowns are its interior nodes, and its record
    holds only their rows and columns; by default it holds every node.
    """
    S, (c, w) = ops.stiffness, prob.terms(ops)
    if not isinstance(free, slice):  # indexing a sparse matrix copies it
        S = S[free][:, free]
    return S, c[free], w[free]


def _exp_terms(eq, v):
    """``w e^v``: the Jacobian's diagonal and the constraint normal."""
    with np.errstate(invalid="ignore"):
        return eq[2] * _exp_unguarded(v)


def _residual(eq, v):
    """``F(v) = S v + c + w e^v``."""
    S, c, _ = eq
    return S @ v + c + _exp_terms(eq, v)


def _jacobian(eq, v):
    return (eq[0] + sp.diags(_exp_terms(eq, v))).tocsr()


def _solve_newton(mesh, p, prob, init, opts, dirichlet=False):
    """Damped Newton on the core equation; its unknowns are the interior nodes if ``dirichlet``.

    Without ``init`` this is the nested iteration of full multigrid.  The
    rings nest (``coarse_mesh``), so the same problem, with the data taken
    at the nested nodes, is solved first on the coarsest mesh from zero and
    then on each finer mesh from the solution of the one below
    (``_fmg_start``), relaxed on the new nodes; from ``init`` the finest
    level is the only one.  Each level builds its record (``_equation``) on
    its unknowns and its residual weights ``M + M_b``, which on the interior
    nodes are ``M``.  A level whose solve fails hands zero to the next, and
    the finest level's failure is raised.  Every level stops at
    ``_newton_loop``'s tolerance, which scales with the residual of zero and
    so stays above the float64 floor of the residual.  From
    ``_TWO_GRID_MIN_RINGS`` rings on, the finest level factors nothing:
    two-grid cycles on the last factor of the level below solve its Newton
    systems.  Returns ``(v, residual_norm, iterations, trace, counts)``:
    ``iterations`` counts the steps of every level that converged, ``trace``
    is the finest level's, and ``counts`` sums the linear solves of every
    level.
    """
    levels = [(mesh, prob)]
    while init is None and (level := coarse_mesh(levels[-1][0])) is not None:
        coarse, idx = level
        fine_prob = levels[-1][1]
        levels.append((coarse, ProblemP2(prob.a, prob.b, DiskField(coarse, fine_prob.f.values[idx]),
                                         DiskField(coarse, fine_prob.g.values[idx]))))
    counts = Counter()
    v_2h = v_4h = None  # converged solutions of the two levels below
    iterations = 0
    # only the level below the finest keeps its last factor, for the finest's
    # two-grid solves; their transfer is built before any level's transient arrays
    below = transfer = lu = None
    if len(levels) > 1 and round(1.0 / mesh.h) >= _TWO_GRID_MIN_RINGS:
        below = levels[1][0]
        transfer = transfer_pair(below, mesh, interior=dirichlet)
    for level_mesh, level_prob in reversed(levels):
        ops = assemble(level_mesh, p)
        free = level_mesh.interior_nodes() if dirichlet else slice(None)
        eq = _equation(ops, level_prob, free)
        weights = (ops.volume_mass + ops.boundary_mass)[free]
        if v_2h is None:
            x0 = (np.zeros(level_mesh.n_nodes) if init is None else init.values)[free]
        else:
            new = np.ones(level_mesh.n_nodes, dtype=bool)
            new[coarse_mesh(level_mesh)[1]] = False
            x0 = _relax_new_nodes(eq, _fmg_start(level_mesh, v_2h, v_4h)[free], np.flatnonzero(new[free]),
                                  weights)
        try:
            x, res, steps, trace, lu = _newton_loop(eq, x0, weights, opts, counts,
                                                    coarse=None if lu is None else (lu, transfer),
                                                    keep_factor=level_mesh is below)
        except (NonConvergence, SingularJacobian, DomainError):
            if level_mesh is mesh:
                raise
            v = None
        else:
            iterations += steps
            v = np.zeros(level_mesh.n_nodes)
            v[free] = x
        v_2h, v_4h = v, v_2h
    return v, res, iterations, trace, counts


def _fmg_start(mesh, v_2h, v_4h):
    """The half-ring solution ``v_2h`` prolonged to ``mesh``, Richardson-extrapolated first.

    ``v_4h``, when given, is the solution of the level below ``v_2h``.  Its
    O(h^2) error is four times that of ``v_2h``, so the extrapolated coarse
    solution is ``v_2h + P (v_2h[idx] - v_4h) / 3``, with ``v_2h[idx]`` its
    values at the nodes of that level and ``P`` the prolongation to it.
    """
    coarse = coarse_mesh(mesh)[0]
    if v_4h is not None:
        coarser, idx = coarse_mesh(coarse)
        v_2h = v_2h + prolong(coarser, v_2h[idx] - v_4h, coarse) / 3.0
    return prolong(coarse, v_2h, mesh)


def _relax_new_nodes(eq, v0, new, weights):
    """``v0`` after nonlinear Jacobi sweeps on the unknowns ``new``, those the half-ring mesh lacks.

    A prolonged start is exact to O(h^2) only at the nested nodes; its
    interpolation error sits on the new ones.  ``_RELAX_SWEEPS`` undamped
    sweeps there, with the nested nodes held, cut that error.  The relaxed
    start is kept only if it lowers the weighted residual, which a start far
    from the solution need not.
    """
    # the core equation's rows at the new nodes
    S, c, w = eq
    stiffness, diag, c, w = S[new], S.diagonal()[new], c[new], w[new]
    v = v0.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_RELAX_SWEEPS):
            wev = w * _exp_unguarded(v[new])
            v[new] -= (stiffness @ v + c + wev) / (diag + wev)
    before = _weighted_norm(_residual(eq, v0), weights)
    return v if _weighted_norm(_residual(eq, v), weights) < before else v0


def _solve_variational(mesh, p, prob, init, opts, weights):
    """Minimize ``0.5 |grad v|^2 + a int(v) + b bint(v)`` over {K = 0}, then polish.

    Every data decision of the variational route is made here, in terms of
    the equation's linear part ``r_h = sum(c) = a Vol_h + b Vol_b,h`` and
    exponential weights ``w``, so ``K(v) = r_h + sum(w e^v)``.  {K = 0} is
    empty, and ``InfeasibleError`` is raised, unless some ``w_i`` has the
    sign opposite to ``r_h``; with a = b = 0 it also needs ``sum(w) =
    int(f) + bint(g) > 0``, which equals ``int(e^-v |grad v|^2)`` at every
    solution.  For ``r_h < 0`` and ``w`` of both signs the energy is
    unbounded below on {K = 0}: it falls like ``r_h k`` along ``k + psi``
    with ``sum(w e^psi) = -r_h e^-k``.  An ``ExistenceWindowWarning`` says so.

    Projected preconditioned descent selects the minimizer and
    ``_newton_loop`` on the core equation polishes it to tolerance.
    ``weights`` (one per node) measure residuals and descent steps and shift
    the preconditioner ``S + diag(weights)``.  Every iterate lies on
    {K = 0}.  With (a, b) != 0 the constant shift ``v + ln(-r_h / e)``, ``e
    = sum(w e^v)``, puts it there when ``e`` and ``r_h`` have opposite
    signs; otherwise the start takes the density shift of
    ``reach_exponential_target`` and a descent trial is rejected.  With
    a = b = 0 every point takes the density shift, the minimizer is
    gauge-fixed to zero mean, and shifted by the logarithm of its
    ``multiplier_kappa`` it solves the core equation.  The polish starts
    there, and the multiplier is ``kappa``, ``exp`` of the polished field's
    ``M``-weighted mean.  Otherwise the polished field solves ``S v + c + w
    e^v = 0``, whose part ``S v + c`` is the descent's gradient: stationarity
    on {K = 0} with multiplier exactly -1.  Returns ``(v, multiplier,
    iterations, residual_norm, trace, counts)``, ``counts`` the
    factorizations of the preconditioner and the polish.
    """
    ops = assemble(mesh, p)
    eq = S, c, w = _equation(ops, prob)
    m = ops.volume_mass
    vol_h = float(np.sum(m))
    r_h = float(np.sum(c))
    case_zero = prob.a == 0.0 and prob.b == 0.0
    both_signs = w.min() < 0.0 < w.max()
    if case_zero and (not both_signs or data_total(mesh, p, prob) <= 0.0):
        raise InfeasibleError("a zero linear part needs exponential terms of both signs and positive total, "
                              "int(f) + bint(g) > 0 (for P1 with gamma = 0: int(f) < 0)")
    if not case_zero and not np.any(r_h * w < 0.0):
        raise InfeasibleError("a linear part of %g needs exponential terms of the opposite sign" % r_h)
    if r_h < 0.0 and both_signs:
        warnings.warn("linear part %g < 0 and exponential terms of both signs: the energy is unbounded below "
                      "on {K = 0}, so it has no global minimum" % r_h, ExistenceWindowWarning, stacklevel=3)

    def project(v):
        if case_zero:
            return reach_exponential_target(mesh, p, prob, v, 0.0)
        e = float(np.sum(_exp_terms(eq, v)))
        if e == 0.0 or np.sign(e) == np.sign(r_h):
            return None
        return v + math.log(-r_h / e)

    v = np.zeros(mesh.n_nodes) if init is None else init.values.copy()
    v_p = project(v)
    # no constant shift has the sign needed: shift along the density instead
    v = reach_exponential_target(mesh, p, prob, v, -r_h) if v_p is None else v_p

    precond = _factorize(S + sp.diags(weights))
    counts = Counter(factorizations=1)
    merit = functional_I_p2(mesh, p, DiskField(mesh, v), prob)
    trace = []
    iterations = 0
    for _ in range(opts.max_descent_iter):
        grad = S @ v + c
        normals = [_exp_terms(eq, v)]
        if case_zero:
            normals.append(m)  # shift gauge: pin the mean
        d, slope = _projected_direction(precond, grad, normals)
        if not math.isfinite(slope) or slope >= 0.0:
            break
        dnorm = _weighted_norm(d * weights, weights)
        step, accepted = 1.0, False
        while step >= _MIN_STEP:
            v_t = project(v + step * d)
            if v_t is not None:
                if case_zero:
                    v_t = v_t - weighted_sum(m, v_t) / vol_h
                merit_t = functional_I_p2(mesh, p, DiskField(mesh, v_t), prob)
                if math.isfinite(merit_t) and merit_t <= merit + _ARMIJO_SLOPE * step * slope:
                    v, merit, accepted = v_t, merit_t, True
                    break
            step *= _ARMIJO_FACTOR
        if not accepted:
            break
        iterations += 1
        trace.append((merit, step))
        if dnorm * step <= 10.0 * opts.tol_abs:
            break

    precond = None  # freed before the polish factors
    if case_zero:  # the shifted minimizer solves the equation
        v = v + math.log(multiplier_kappa(mesh, p, DiskField(mesh, v), prob))
    v, res, polish_iters, trace, _ = _newton_loop(eq, v, weights, opts, counts, trace=trace)
    multiplier = math.exp(weighted_sum(m, v) / vol_h) if case_zero else -1.0
    return v, multiplier, iterations + polish_iters, res, trace, counts


def _projected_direction(precond, grad, normals):
    """Preconditioned steepest-descent direction tangent to the constraints.

    Solves the small normal system so that the returned ``d`` satisfies
    ``w @ d = 0`` for every constraint gradient ``w`` while keeping
    ``grad @ d <= 0`` (zero only at constrained stationarity).
    """
    pg = precond.solve(grad)
    pw = [precond.solve(w) for w in normals]
    a = np.array([[weighted_sum(w, x) for x in pw] for w in normals])
    rhs = np.array([weighted_sum(w, pg) for w in normals])
    try:
        mu = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        mu = np.linalg.lstsq(a, rhs, rcond=None)[0]
    d = -(pg - sum(c * x for c, x in zip(mu, pw)))
    return d, weighted_sum(grad, d)


def _report(mesh, p, prob, v, iterations, res, multiplier, trace, counts):
    """A converged field with the constraint value and energy of its own problem."""
    out = DiskField(mesh, v)
    p1 = isinstance(prob, ProblemP1)
    return SolveReport(
        field=out,
        converged=True,
        iterations=iterations,
        residual_norm=res,
        constraint_value=(constraint_A_p1 if p1 else constraint_K)(mesh, p, out, prob),
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

    With ``natural=False`` only interior rows count (Dirichlet boundary);
    ``natural=True`` scores all rows (zero-flux stationarity of the
    variational path).
    """
    ops = assemble(mesh, p)
    F = _residual(_equation(ops, prob.as_p2()), field.values)
    rows = slice(None) if natural else mesh.interior_nodes()
    return _weighted_norm(F[rows], ops.volume_mass[rows])


def solve_p1_newton(mesh: DiskMesh, p: TorusParams, prob: ProblemP1,
                    init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Damped Newton on the Dirichlet weak form of the P1 problem."""
    v, res, iterations, trace, counts = _solve_newton(mesh, p, prob.as_p2(), init, opts or SolveOptions(),
                                                      dirichlet=True)
    return _report(mesh, p, prob, v, iterations, res, None, trace, counts)


def solve_p1_variational(mesh: DiskMesh, p: TorusParams, prob: ProblemP1,
                         init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Constrained minimization of the P1 energy over {int(f e^v) = gamma Vol}.

    The core descends on half the P1 energy, ``0.5 |grad v|^2 + gamma
    int(v)``, with residuals weighted by the volume mass, and decides
    feasibility (``_solve_variational``).  It runs over the full nodal
    space, so the stationary field satisfies the interior equation with
    natural (zero-flux) boundary behavior.  For gamma = 0 the returned field
    is the minimizer shifted by ``ln(kappa)`` and polished, and the
    multiplier is ``kappa``, ``exp`` of its mean; otherwise the multiplier
    of ``f e^v`` is exactly 1.
    """
    window = 8.0 * (p.l - p.r) / (p.l * p.r**2)
    if prob.gamma >= window:
        warnings.warn("gamma=%g outside the sufficient window (0, %g); existence not guaranteed"
                      % (prob.gamma, window), ExistenceWindowWarning, stacklevel=2)

    v, multiplier, iterations, res, trace, counts = _solve_variational(
        mesh, p, prob.as_p2(), init, opts or SolveOptions(), assemble(mesh, p).volume_mass)
    if prob.gamma != 0.0:
        multiplier = -multiplier  # the core's multiplier of -f e^v
    return _report(mesh, p, prob, v, iterations, res, multiplier, trace, counts)


# ---------------------------------------------------------------------------
# P2: Delta v + a + f e^v = 0 in T, dv/dn + b + g e^v = 0 on the boundary
# ---------------------------------------------------------------------------

def p2_residual_norm(mesh: DiskMesh, p: TorusParams, prob: ProblemP2, field: DiskField) -> float:
    """Weighted-L2 strong residual of both P2 equations (all rows)."""
    ops = assemble(mesh, p)
    F = _residual(_equation(ops, prob), field.values)
    return _weighted_norm(F, ops.volume_mass + ops.boundary_mass)


def solve_p2_newton(mesh: DiskMesh, p: TorusParams, prob: ProblemP2,
                    init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Damped Newton on the nonlinear Neumann weak form of the P2 problem."""
    v, res, iterations, trace, counts = _solve_newton(mesh, p, prob, init, opts or SolveOptions())
    return _report(mesh, p, prob, v, iterations, res, None, trace, counts)


def solve_p2_variational(mesh: DiskMesh, p: TorusParams, prob: ProblemP2,
                         init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Constrained minimization of the P2 energy over {K = 0}.

    The core decides feasibility (``_solve_variational``).  For a = b = 0
    the minimizer is gauge-fixed to zero mean, and the field returned is
    that minimizer shifted by ``ln(kappa)`` and polished on the P2 equation;
    ``kappa``, ``exp`` of the returned field's volume mean, is reported (as
    for P1 with gamma = 0).  With (a, b) != 0 the stationary point of the
    constrained problem satisfies the P2 weak form directly, and the
    multiplier reported is exactly -1.
    """
    ops = assemble(mesh, p)
    g = prob.g.values[mesh.boundary_nodes]
    if prob.a >= 0.0 and prob.b >= 0.0 and (prob.a, prob.b) != (0.0, 0.0) \
            and not (0.0 < prob.R(p) < (8.0 if np.all(g == 0.0) else 4.0) * math.pi**2 * (p.l - p.r)):
        warnings.warn("R=%g outside the sufficient existence window of the a,b >= 0 regime" % prob.R(p),
                      ExistenceWindowWarning, stacklevel=2)

    v, multiplier, iterations, res, trace, counts = _solve_variational(
        mesh, p, prob, init, opts or SolveOptions(), ops.volume_mass + ops.boundary_mass)
    return _report(mesh, p, prob, v, iterations, res, multiplier, trace, counts)


# ---------------------------------------------------------------------------
# Monotone sub/supersolution iteration (P2, a <= 0, b <= 0 regime)
# ---------------------------------------------------------------------------

def find_constant_bracket(mesh: DiskMesh, p: TorusParams, prob: ProblemP2):
    """Constant sub/supersolution pair for the a, b <= 0 regime.

    The subsolution needs ``a + f e^c <= 0`` and ``b + g e^c <= 0`` at every
    node; the supersolution reverses both.  Returns the binding constants or
    raises ``NoBracket`` when no constants work (constant family only).
    """
    if not (prob.a <= 0.0 and prob.b <= 0.0) or (prob.a == 0.0 and prob.b == 0.0):
        raise DomainError("constant brackets require a <= 0, b <= 0, not both zero")
    f = prob.f.values
    g = prob.g.values[mesh.boundary_nodes]

    upper_bounds = []  # e^c <= bound  (subsolution side)
    for coeff, const in ((f, prob.a), (g, prob.b)):
        pos = coeff[coeff > 0.0]
        if pos.size:
            if const == 0.0:
                raise NoBracket("positive data with zero linear part admit no constant subsolution")
            upper_bounds.append(float(np.min(-const / pos)))
    lower_bounds = []  # e^c >= bound  (supersolution side)
    for coeff, const in ((f, prob.a), (g, prob.b)):
        if const < 0.0:
            if float(coeff.min()) <= 0.0:
                raise NoBracket("nonpositive data cannot dominate a negative linear part")
            lower_bounds.append(float(np.max(-const / coeff)))
        # const == 0 requires coeff >= 0 everywhere, checked via the sub side
    if prob.a == 0.0 and float(f.min()) < 0.0:
        raise NoBracket("a = 0 with sign-changing f admits no constant supersolution")
    if prob.b == 0.0 and float(g.min()) < 0.0:
        raise NoBracket("b = 0 with negative boundary data admits no constant supersolution")

    c_plus = math.log(max(lower_bounds)) if lower_bounds else 0.0
    c_minus = math.log(min(upper_bounds)) if upper_bounds else min(0.0, c_plus)
    if upper_bounds and lower_bounds and c_minus > c_plus + 1e-14 * (1 + abs(c_plus)):
        # c- <= c+ is the ordered bracket; the binding constants cross only
        # for inconsistent data
        raise NoBracket("constant inequalities are inconsistent: c-=%g > c+=%g" % (c_minus, c_plus))
    c_minus = min(c_minus, c_plus)
    return (DiskField.constant(mesh, c_minus), DiskField.constant(mesh, c_plus))


def solve_p2_monotone(mesh: DiskMesh, p: TorusParams, prob: ProblemP2,
                      sub: DiskField, super: DiskField,
                      opts: SolveOptions | None = None) -> SolveReport:
    """Monotone iteration between an ordered sub/supersolution pair.

    Each step is the defect correction ``v <- v - (S + W)^-1 F(v)`` on the
    core residual ``F``, with the shift ``W = diag(w_shift M + wb_shift
    M_b)`` above the exponential terms' slope on the bracket; iterates from
    the subsolution are nodewise non-decreasing and stay below the
    supersolution (asserted every iteration).  Terminates when the sup-norm
    increment drops below tolerance.
    """
    opts = opts or SolveOptions()
    ops = assemble(mesh, p)
    eq = _equation(ops, prob)
    m, mb = ops.volume_mass, ops.boundary_mass
    f, g = prob.f.values, prob.g.values
    lo, hi = sub.values, super.values
    slack = 1e-12 * (1.0 + float(np.max(np.abs(hi))) + float(np.max(np.abs(lo))))
    if np.any(lo > hi + slack):
        raise OrderingViolation("subsolution exceeds supersolution at %d nodes"
                                % int(np.sum(lo > hi + slack)))

    # discrete inequality check of the defining sub/supersolution conditions,
    # scored as nodewise strong residuals
    ehi = _exp_unguarded(float(np.max(hi)))
    scale = 1.0 + abs(prob.a) + abs(prob.b) + float(np.max(np.abs(f))) * ehi + float(np.max(np.abs(g))) * ehi
    tol_ineq = 1e-9 * scale
    F_lo = _residual(eq, lo) / (m + mb)
    if np.any(F_lo > tol_ineq):
        raise OrderingViolation("subsolution fails the discrete inequality (max violation %g)"
                                % float(np.max(F_lo)))
    F_hi = _residual(eq, hi) / (m + mb)
    if np.any(F_hi < -tol_ineq):
        raise OrderingViolation("supersolution fails the discrete inequality (min value %g)"
                                % float(np.min(F_hi)))

    w_shift = float(np.max(np.abs(f) * _exp_unguarded(np.max(hi)))) + 1.0
    wb_shift = float(np.max(np.abs(g) * _exp_unguarded(np.max(hi)))) + 1.0
    lu = _factorize(ops.stiffness + sp.diags(w_shift * m + wb_shift * mb))

    v = lo.copy()
    trace = []
    converged = False
    iterations = 0
    tol = opts.tol_abs + opts.tol_rel * float(np.max(hi - lo))
    for iterations in range(1, opts.max_monotone_iter + 1):
        v_new = v - lu.solve(_residual(eq, v))
        if np.any(v_new < v - slack):
            raise OrderingViolation("iterate decreased at %d nodes (shift too small?)"
                                    % int(np.sum(v_new < v - slack)))
        if np.any(v_new > hi + slack):
            raise OrderingViolation("iterate escaped above the supersolution at %d nodes"
                                    % int(np.sum(v_new > hi + slack)))
        inc = float(np.max(np.abs(v_new - v)))
        trace.append((inc, 1.0))
        v = v_new
        if inc <= tol:
            converged = True
            break
    if not converged:
        raise NonConvergence("monotone iteration did not contract below %g in %d steps"
                             % (tol, opts.max_monotone_iter))
    return _report(mesh, p, prob, v, iterations, p2_residual_norm(mesh, p, prob, DiskField(mesh, v)),
                   None, trace, Counter(factorizations=1))
