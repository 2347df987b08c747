"""Solvers for the torus problems: damped Newton, constrained descent, monotone iteration.

Both model problems are one discrete equation,
``S v + M (a + f e^v) + M_b (b + g e^v) = 0``, with ``S`` the weighted
stiffness and ``M``, ``M_b`` the lumped volume and boundary masses.  P2 is
this equation on all nodes.  P1 (``Delta v + gamma = f e^v``) is its case
``a = gamma``, ``f -> -f``, ``b = g = 0``, restricted to the interior nodes
for the Dirichlet problem.  One Newton core and one variational core solve
the equation; the public solvers map their data onto it, check their own
feasibility and existence windows, and fill their reports.

Sign convention: the problems are stated with the geometer's positive
Laplacian (``Delta v = -div grad v``), so weak forms use the positive
semidefinite weighted stiffness directly.  Every residual orientation is
calibrated against the exact constant solutions in the test suite.
"""

from __future__ import annotations

import math
import warnings
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
    functional_I_p1,
    functional_I_p2,
    multiplier_kappa,
    reach_exponential_target,
)
from .geometry import TorusParams
from .mesh import DiskField, DiskMesh, assemble, coarse_mesh, dissection_order, prolong


@dataclass
class SolveOptions:
    """Iteration controls; defaults are the desk-scale settings."""

    tol_abs: float = 1e-10
    tol_rel: float = 1e-10
    max_iter: int = 50
    max_descent_iter: int = 5000
    max_monotone_iter: int = 500


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
    sup-norm increments.
    """

    field: DiskField
    converged: bool
    iterations: int
    residual_norm: float
    constraint_value: float
    multiplier: float | None
    functional_value: float
    trace: list = dataclass_field(repr=False, default_factory=list)


# nonlinear Jacobi sweeps on the new nodes of each nested Newton start
_RELAX_SWEEPS = 8
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


class _PermutedFactor:
    """LU factor of ``A[order][:, order]`` that solves systems in ``A``."""

    def __init__(self, lu, order):
        self._lu = lu
        self._order = order
        self.nnz = lu.nnz

    def solve(self, rhs):
        x = np.empty_like(rhs)
        x[self._order] = self._lu.solve(rhs[self._order])
        return x


def _factorize(matrix, order):
    """Sparse LU of a structurally symmetric matrix in a given elimination order.

    Every matrix the solvers factor is the weighted stiffness plus a diagonal
    (Newton Jacobians, descent preconditioners, the monotone shift) or its
    interior block.  Its graph is the mesh's, so one nested-dissection order
    of the mesh nodes (``dissection_order``) serves them all.  A planar mesh
    has small separators, which nested dissection orders last, so it leaves
    less fill than minimum degree: 0.87 times the nonzeros on a 50k-node
    Jacobian.  The Dirichlet block takes the order restricted to the interior
    nodes (``_restrict_order``).

    Rows and columns are permuted alike and SuperLU keeps that order
    (``NATURAL``, ``SymmetricMode``).  A diagonal pivot threshold of 0.01
    keeps the diagonal as the pivot unless it is below 1% of the largest
    entry in its column.
    """
    A = sp.csc_matrix(matrix)[order][:, order]
    try:
        lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.01,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularJacobian("sparse factorization failed: %s" % exc) from exc
    return _PermutedFactor(lu, order)


def _restrict_order(order, nodes):
    """``order`` restricted to ``nodes``, renumbered by position in ``nodes``."""
    local = np.full(order.size, -1)
    local[nodes] = np.arange(nodes.size)
    local = local[order]
    return local[local >= 0]


def _newton_loop(ops, prob, v0, weights, opts, order, trace=None, mask=None):
    """Damped Newton on the core equation, Armijo backtracking on its weighted residual norm.

    ``order`` is the elimination order of the nodes (see ``_factorize``).
    ``mask`` restricts the update, the residual rows, the Jacobian and the
    order to a subset of nodes (Dirichlet problems); ``weights`` are given
    on those rows.  Newton stops at the residual ``tol_abs + tol_rel * r0``,
    ``r0`` the residual of the zero field.  That reference depends on the
    data alone, so no start moves the tolerance: a start far off, such as a
    stalled descent's, cannot loosen it, and a start near the solution
    cannot push it below the float64 floor of the residual.
    """
    rows = slice(None) if mask is None else mask

    def residual(v):
        F = _residual(ops, prob, v)[rows]
        return F, _weighted_norm(F, weights)

    v = v0.copy()
    trace = trace if trace is not None else []
    F, res = residual(v)
    if not math.isfinite(res):
        raise DomainError("initial iterate produces a non-finite residual")
    tol = opts.tol_abs + opts.tol_rel * residual(np.zeros_like(v))[1]
    if mask is not None:
        order = _restrict_order(order, mask)
    trace.append((res, 0.0))
    iterations = 0
    while res > tol and iterations < opts.max_iter:
        J = _jacobian(ops, prob, v)
        if mask is not None:
            J = J[mask, :][:, mask]
        # the factor serves one solve; holding no reference frees it at once
        delta = -_factorize(J, order).solve(F)
        if not np.all(np.isfinite(delta)):
            raise SingularJacobian("Newton direction is non-finite")
        step = 1.0
        accepted = False
        while step >= _MIN_STEP:
            v_trial = v.copy()
            v_trial[rows] += step * delta
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
    return v, res, iterations, trace


# ---------------------------------------------------------------------------
# The core: S v + M (a + f e^v) + M_b (b + g e^v) = 0
# ---------------------------------------------------------------------------

def _as_p2(mesh, prob):
    """P1 data as core data: a = gamma, f -> -f, b = g = 0."""
    return ProblemP2(prob.gamma, 0.0, DiskField(mesh, -prob.f.values), DiskField.constant(mesh, 0.0))


def _residual(ops, prob, v):
    ev = _exp_unguarded(v)
    with np.errstate(invalid="ignore"):
        return (ops.stiffness @ v
                + ops.volume_mass * (prob.a + prob.f.values * ev)
                + ops.boundary_mass * (prob.b + prob.g.values * ev))


def _exp_terms(ops, prob, v):
    """``M f e^v + M_b g e^v``: the Jacobian's diagonal and the constraint normal."""
    ev = _exp_unguarded(v)
    with np.errstate(invalid="ignore"):
        return ops.volume_mass * prob.f.values * ev + ops.boundary_mass * prob.g.values * ev


def _jacobian(ops, prob, v):
    return (ops.stiffness + sp.diags(_exp_terms(ops, prob, v))).tocsr()


def _solve_newton(mesh, p, prob, init, opts, dirichlet=False):
    """Damped Newton on the core equation; boundary nodes stay at zero if ``dirichlet``.

    Without ``init`` this is the nested iteration of full multigrid.  The
    rings nest (``coarse_mesh``), so the same problem, with the data taken
    at the nested nodes, is solved first on the coarsest mesh from zero and
    then on each finer mesh from the solution of the one below
    (``_fmg_start``).  A level whose solve fails hands zero to the next, and
    the finest level's failure is raised.  Every level, like a solve from
    ``init``, stops at ``_newton_loop``'s tolerance, which scales with the
    residual of zero and so stays above the float64 floor of the residual.
    Residuals are weighted by ``M + M_b``, which on the interior nodes is
    ``M``.  Returns ``(v, residual_norm, iterations, trace)``:
    ``iterations`` counts the steps of every level that converged,
    ``trace`` is the finest level's.
    """
    if init is not None:
        return _newton_level(mesh, p, prob, init.values.copy(), opts, dirichlet)
    levels = [(mesh, prob)]
    while (level := coarse_mesh(levels[-1][0])) is not None:
        coarse, idx = level
        fine_prob = levels[-1][1]
        levels.append((coarse, ProblemP2(prob.a, prob.b, DiskField(coarse, fine_prob.f.values[idx]),
                                         DiskField(coarse, fine_prob.g.values[idx]))))
    v_2h = v_4h = None  # converged solutions of the two levels below
    iterations = 0
    for level_mesh, level_prob in reversed(levels):
        v0 = np.zeros(level_mesh.n_nodes) if v_2h is None else _fmg_start(level_mesh, v_2h, v_4h)
        try:
            v, res, steps, trace = _newton_level(level_mesh, p, level_prob, v0, opts, dirichlet,
                                                 relax=v_2h is not None)
        except (NonConvergence, SingularJacobian, DomainError):
            if level_mesh is mesh:
                raise
            v = None
        else:
            iterations += steps
        v_2h, v_4h = v, v_2h
    return v, res, iterations, trace


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


def _newton_level(mesh, p, prob, v0, opts, dirichlet, relax=False):
    """``_newton_loop`` on one mesh from ``v0``, relaxed first on the new nodes if ``relax``."""
    ops = assemble(mesh, p)
    weights = ops.volume_mass + ops.boundary_mass
    mask = None
    if dirichlet:
        mask = mesh.interior_nodes()
        v0[mesh.boundary_nodes] = 0.0
        weights = weights[mask]
    if relax:
        v0 = _relax_new_nodes(mesh, ops, prob, v0, mask, weights)
    return _newton_loop(ops, prob, v0, weights, opts, dissection_order(mesh), mask=mask)


def _relax_new_nodes(mesh, ops, prob, v0, mask, weights):
    """``v0`` after nonlinear Jacobi sweeps on the nodes the half-ring mesh lacks.

    A prolonged start is exact to O(h^2) only at the nested nodes; its
    interpolation error sits on the new ones.  ``_RELAX_SWEEPS`` undamped
    sweeps there, with the nested and the Dirichlet nodes held, cut that
    error.  The relaxed start is kept only if it lowers the weighted
    residual, which a start far from the solution need not.
    """
    new = np.ones(mesh.n_nodes, dtype=bool)
    new[coarse_mesh(mesh)[1]] = False
    if mask is not None:
        new[mesh.boundary_nodes] = False
    new = np.flatnonzero(new)
    # the core equation's rows at the new nodes: S v + (M a + M_b b) + (M f + M_b g) e^v
    stiffness = ops.stiffness[new]
    diag = ops.stiffness.diagonal()[new]
    m, mb = ops.volume_mass[new], ops.boundary_mass[new]
    linear = m * prob.a + mb * prob.b
    w = m * prob.f.values[new] + mb * prob.g.values[new]
    v = v0.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_RELAX_SWEEPS):
            wev = w * _exp_unguarded(v[new])
            v[new] -= (stiffness @ v + linear + wev) / (diag + wev)
    rows = slice(None) if mask is None else mask
    before = _weighted_norm(_residual(ops, prob, v0)[rows], weights)
    return v if _weighted_norm(_residual(ops, prob, v)[rows], weights) < before else v0


def _solve_variational(mesh, p, prob, init, opts, weights):
    """Minimize ``0.5 |grad v|^2 + a int(v) + b bint(v)`` over {K = 0}, then polish.

    Projected preconditioned descent selects the minimizer and
    ``_newton_loop`` on the core equation polishes it to tolerance.
    ``weights`` (one per node) measure residuals and descent steps and shift
    the preconditioner ``S + diag(weights)``.  Every iterate lies on
    {K = 0}.  With (a, b) != 0 the constant shift ``v + ln(-R / e)`` puts it
    there, ``e`` the exponential terms, when ``e`` and ``R`` have opposite
    signs; otherwise the start takes the density shift of
    ``reach_exponential_target`` and a descent trial is rejected.  With
    a = b = 0 every point takes the density shift.  For a = b = 0 the
    minimizer is gauge-fixed to zero mean, and shifted by the logarithm of
    its ``multiplier_kappa`` it solves the core equation; the polish starts
    there, and the multiplier reported is ``kappa``, ``exp`` of the polished
    field's ``M``-weighted mean.  Otherwise the multiplier is the
    least-squares fit of ``S v + a M + b M_b`` to the constraint normal.
    Returns ``(v, multiplier, iterations, residual_norm, trace)``.
    """
    ops = assemble(mesh, p)
    S, m, mb = ops.stiffness, ops.volume_mass, ops.boundary_mass
    f, g = prob.f.values, prob.g.values
    vol_h = float(np.sum(m))
    r_h = prob.a * vol_h + prob.b * float(np.sum(mb))
    case_zero = prob.a == 0.0 and prob.b == 0.0

    def project(v):
        if case_zero:
            return reach_exponential_target(mesh, p, prob.f, prob.g, v, 0.0)
        ev = _exp_unguarded(v)
        e = float(m @ (f * ev)) + float(mb @ (g * ev))
        if e == 0.0 or np.sign(e) == np.sign(r_h):
            return None
        return v + math.log(-r_h / e)

    v = np.zeros(mesh.n_nodes) if init is None else init.values.copy()
    v_p = project(v)
    # no constant shift has the sign needed: shift along the density instead
    v = reach_exponential_target(mesh, p, prob.f, prob.g, v, -r_h) if v_p is None else v_p

    order = dissection_order(mesh)
    precond = _factorize(S + sp.diags(weights), order)
    merit = functional_I_p2(mesh, p, DiskField(mesh, v), prob)
    trace = []
    iterations = 0
    for _ in range(opts.max_descent_iter):
        grad = S @ v + prob.a * m + prob.b * mb
        normals = [_exp_terms(ops, prob, v)]
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
                    v_t = v_t - float(m @ v_t) / vol_h
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

    if case_zero:  # the shifted minimizer solves the equation
        v = v + math.log(multiplier_kappa(mesh, p, DiskField(mesh, v), prob))
    v, res, polish_iters, trace = _newton_loop(ops, prob, v, weights, opts, order, trace=trace)
    if case_zero:
        multiplier = math.exp(float(m @ v) / vol_h)
    else:
        w_vec = _exp_terms(ops, prob, v)
        multiplier = float(w_vec @ (S @ v + prob.a * m + prob.b * mb)) / float(w_vec @ w_vec)
    return v, multiplier, iterations + polish_iters, res, trace


def _projected_direction(precond, grad, normals):
    """Preconditioned steepest-descent direction tangent to the constraints.

    Solves the small normal system so that the returned ``d`` satisfies
    ``w @ d = 0`` for every constraint gradient ``w`` while keeping
    ``grad @ d <= 0`` (zero only at constrained stationarity).
    """
    pg = precond.solve(grad)
    pw = np.stack([precond.solve(w) for w in normals], axis=1)
    wmat = np.stack(normals, axis=1)
    a = wmat.T @ pw
    rhs = wmat.T @ pg
    try:
        mu = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        mu = np.linalg.lstsq(a, rhs, rcond=None)[0]
    d = -(pg - pw @ mu)
    return d, float(grad @ d)


def _report(mesh, p, prob, v, iterations, res, multiplier, trace):
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
    F = _residual(ops, _as_p2(mesh, prob), field.values)
    rows = slice(None) if natural else mesh.interior_nodes()
    return _weighted_norm(F[rows], ops.volume_mass[rows])


def solve_p1_newton(mesh: DiskMesh, p: TorusParams, prob: ProblemP1,
                    init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Damped Newton on the Dirichlet weak form of the P1 problem."""
    v, res, iterations, trace = _solve_newton(mesh, p, _as_p2(mesh, prob), init, opts or SolveOptions(),
                                              dirichlet=True)
    return _report(mesh, p, prob, v, iterations, res, None, trace)


def solve_p1_variational(mesh: DiskMesh, p: TorusParams, prob: ProblemP1,
                         init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Constrained minimization of the P1 energy over {int(f e^v) = gamma Vol}.

    The core descends on half the P1 energy, ``0.5 |grad v|^2 + gamma
    int(v)``, with residuals weighted by the volume mass.  It runs over the
    full nodal space, so the stationary field satisfies the interior
    equation with natural (zero-flux) boundary behavior.  For gamma = 0 the
    returned field is the minimizer shifted by ``ln(kappa)`` and polished,
    and the multiplier is ``kappa``, ``exp`` of its mean; otherwise it is the
    fitted multiplier of ``f e^v``.
    """
    m = assemble(mesh, p).volume_mass
    f, gamma = prob.f.values, prob.gamma
    if gamma > 0 and f.max() <= 0.0:
        raise InfeasibleError("gamma > 0 requires f to be positive somewhere")
    if gamma < 0 and f.min() >= 0.0:
        raise InfeasibleError("gamma < 0 requires f to be negative somewhere")
    if gamma == 0:
        if not (f.min() < 0.0 < f.max()) or float(m @ f) >= 0.0:
            raise InfeasibleError("gamma = 0 requires sign-changing f with negative mean")
    window = 8.0 * (p.l - p.r) / (p.l * p.r**2)
    if gamma > 0 and gamma >= window:
        warnings.warn("gamma=%g outside the sufficient window (0, %g); existence not guaranteed"
                      % (gamma, window), ExistenceWindowWarning, stacklevel=2)

    v, multiplier, iterations, res, trace = _solve_variational(
        mesh, p, _as_p2(mesh, prob), init, opts or SolveOptions(), m)
    if gamma != 0.0:
        multiplier = -multiplier  # fitted against the core's f, which is -f
    return _report(mesh, p, prob, v, iterations, res, multiplier, trace)


# ---------------------------------------------------------------------------
# P2: Delta v + a + f e^v = 0 in T, dv/dn + b + g e^v = 0 on the boundary
# ---------------------------------------------------------------------------

def p2_residual_norm(mesh: DiskMesh, p: TorusParams, prob: ProblemP2, field: DiskField) -> float:
    """Weighted-L2 strong residual of both P2 equations (all rows)."""
    ops = assemble(mesh, p)
    F = _residual(ops, prob, field.values)
    return _weighted_norm(F, ops.volume_mass + ops.boundary_mass)


def solve_p2_newton(mesh: DiskMesh, p: TorusParams, prob: ProblemP2,
                    init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Damped Newton on the nonlinear Neumann weak form of the P2 problem."""
    v, res, iterations, trace = _solve_newton(mesh, p, prob, init, opts or SolveOptions())
    return _report(mesh, p, prob, v, iterations, res, None, trace)


def solve_p2_variational(mesh: DiskMesh, p: TorusParams, prob: ProblemP2,
                         init: DiskField | None = None, opts: SolveOptions | None = None) -> SolveReport:
    """Constrained minimization of the P2 energy over {K = 0}.

    For a = b = 0 the minimizer is gauge-fixed to zero mean, and the
    field returned is that minimizer shifted by ``ln(kappa)`` and polished
    on the P2 equation; ``kappa``, ``exp`` of the returned field's volume
    mean, is reported (as for P1 with gamma = 0).  Those data need
    ``int(f) + bint(g) > 0``: at every solution that sum equals ``int(e^-v
    |grad v|^2)`` (``identity_6_14_residual``).  With (a, b) != 0 the
    stationary point of the constrained problem satisfies the P2 weak form
    directly.
    """
    ops = assemble(mesh, p)
    g = prob.g.values[mesh.boundary_nodes]
    if np.all(prob.f.values == 0.0) and np.all(g == 0.0):
        raise InfeasibleError("f and g must not both vanish identically")
    if (prob.a, prob.b) == (0.0, 0.0) \
            and float(ops.volume_mass @ prob.f.values) + float(ops.boundary_mass @ prob.g.values) <= 0.0:
        raise InfeasibleError("a = b = 0 requires int(f) + bint(g) > 0")
    if prob.a >= 0.0 and prob.b >= 0.0 and (prob.a, prob.b) != (0.0, 0.0) \
            and not (0.0 < prob.R(p) < (8.0 if np.all(g == 0.0) else 4.0) * math.pi**2 * (p.l - p.r)):
        warnings.warn("R=%g outside the sufficient existence window of the a,b >= 0 regime" % prob.R(p),
                      ExistenceWindowWarning, stacklevel=2)

    v, multiplier, iterations, res, trace = _solve_variational(
        mesh, p, prob, init, opts or SolveOptions(), ops.volume_mass + ops.boundary_mass)
    return _report(mesh, p, prob, v, iterations, res, multiplier, trace)


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

    Each step solves the shifted linear problem; iterates from the
    subsolution are nodewise non-decreasing and stay below the supersolution
    (asserted every iteration).  Terminates when the sup-norm increment drops
    below tolerance.
    """
    opts = opts or SolveOptions()
    ops = assemble(mesh, p)
    S, m, mb = ops.stiffness, ops.volume_mass, ops.boundary_mass
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
    F_lo = _residual(ops, prob, lo) / (m + mb)
    if np.any(F_lo > tol_ineq):
        raise OrderingViolation("subsolution fails the discrete inequality (max violation %g)"
                                % float(np.max(F_lo)))
    F_hi = _residual(ops, prob, hi) / (m + mb)
    if np.any(F_hi < -tol_ineq):
        raise OrderingViolation("supersolution fails the discrete inequality (min value %g)"
                                % float(np.min(F_hi)))

    w_shift = float(np.max(np.abs(f) * _exp_unguarded(np.max(hi)))) + 1.0
    wb_shift = float(np.max(np.abs(g) * _exp_unguarded(np.max(hi)))) + 1.0
    lu = _factorize(S + sp.diags(w_shift * m + wb_shift * mb), dissection_order(mesh))

    v = lo.copy()
    trace = []
    converged = False
    iterations = 0
    tol = opts.tol_abs + opts.tol_rel * float(np.max(hi - lo))
    for iterations in range(1, opts.max_monotone_iter + 1):
        ev = _exp_unguarded(v)
        rhs = m * (w_shift * v - prob.a - f * ev) + mb * (wb_shift * v - prob.b - g * ev)
        v_new = lu.solve(rhs)
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
                   None, trace)
