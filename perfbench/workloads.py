"""The benchmark's workloads, their seeded inputs and their output checks.

A workload is a list of rounds; a round runs each of the workload's ops
once, one at a time.  Every op is checked after the timed phase with the
library's public residual and constraint functions; no check reads the
diagnostics of a returned ``SolveReport``.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from torusbvp import cli, mesh, solvers
from torusbvp.expressions import compile_expression
from torusbvp.functionals import ProblemP1, ProblemP2, constraint_A_p1, constraint_K
from torusbvp.geometry import TorusParams
from torusbvp.mesh import DiskField

PARAMS = TorusParams(2.0, 1.0)
# the solvers' default stopping rule when the benchmark was defined; fixed
# here, so that loosening the library's defaults cannot pass the checks
TOL_ABS = TOL_REL = 1e-10


@dataclass
class Op:
    name: str
    run: Callable          # () -> result
    check: Callable        # result -> list of failure messages
    span: str | None = None  # the benchmark's own span around the op

    def execute(self, tracer):
        if self.span is None:
            return self.run()
        with tracer.span(self.span):
            return self.run()


class NullTracer:
    """Stands in for ``tracing.Tracer`` when nothing is traced."""

    def span(self, name):
        return contextlib.nullcontext({})

    def note_assemble(self, rec, mesh_, p):
        pass


def stratified(rng, n, lo, hi):
    """``n`` draws from U(lo, hi), one in each of n equal strata, in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def build(tracer, n_rings):
    """Mesh plus its first (cold) assembly, each timed as a span."""
    with tracer.span("mesh.build_mesh"):
        m = mesh.build_mesh(n_rings)
    with tracer.span("mesh.assemble") as rec:
        mesh.assemble(m, PARAMS)
    tracer.note_assemble(rec, m, PARAMS)
    return m


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _tol(res0):
    """The Newton stopping rule: tol_abs + tol_rel * initial residual."""
    return TOL_ABS + TOL_REL * res0


def _constraint_bound(tol, weights, scale):
    # the constraint is the sum of the residual rows, so Cauchy-Schwarz bounds
    # it by the weighted residual norm times sqrt(sum of weights); the second
    # term covers the roundoff of the sums themselves
    return tol * math.sqrt(float(np.sum(weights))) + 1e-12 * scale


def check_p1(m, prob, field, natural):
    zero = DiskField.constant(m, 0.0)
    tol = _tol(solvers.p1_residual_norm(m, PARAMS, prob, zero, natural=natural))
    res = solvers.p1_residual_norm(m, PARAMS, prob, field, natural=natural)
    fails = [] if res <= tol else ["P1 residual %.3e above %.3e" % (res, tol)]
    if not natural and np.any(field.values[m.boundary_nodes] != 0.0):
        fails.append("P1 Dirichlet boundary values are not zero")
    if natural:
        ops = mesh.assemble(m, PARAMS)
        a_val = constraint_A_p1(m, PARAMS, field, prob)
        scale = float(ops.volume_mass @ np.abs(prob.f.values * np.exp(field.values)))
        scale += abs(prob.gamma) * float(np.sum(ops.volume_mass))
        bound = _constraint_bound(tol, ops.volume_mass, scale)
        if not abs(a_val) <= bound:
            fails.append("P1 constraint |A| = %.3e above %.3e" % (abs(a_val), bound))
    return fails


def check_p2(m, prob, field, constrained):
    ops = mesh.assemble(m, PARAMS)
    zero = DiskField.constant(m, 0.0)
    tol = _tol(solvers.p2_residual_norm(m, PARAMS, prob, zero))
    res = solvers.p2_residual_norm(m, PARAMS, prob, field)
    fails = [] if res <= tol else ["P2 residual %.3e above %.3e" % (res, tol)]
    if constrained:
        k_val = constraint_K(m, PARAMS, field, prob)
        ev = np.exp(field.values)
        scale = (abs(prob.R(PARAMS)) + float(ops.volume_mass @ np.abs(prob.f.values * ev))
                 + float(ops.boundary_mass @ np.abs(prob.g.values * ev)))
        bound = _constraint_bound(tol, ops.volume_mass + ops.boundary_mass, scale)
        if not abs(k_val) <= bound:
            fails.append("P2 constraint |K| = %.3e above %.3e" % (abs(k_val), bound))
    return fails


def check_monotone(m, prob, field, lo, hi):
    """Ordering sub <= v <= super, and the residual the increment rule allows.

    The monotone solver stops when the sup-norm increment is at most
    ``tol_abs + tol_rel * max(super - sub)``.  One step of its shifted
    iteration ``(S + W) v' = W v - N(v)`` leaves the residual
    ``W (v - v') + N(v') - N(v)``, each row at most ``2 W_ii`` times the
    increment, so the weighted norm is at most
    ``2 * inc * max shift * sqrt(sum(m + mb))``.
    """
    ops = mesh.assemble(m, PARAMS)
    v = field.values
    slack = 1e-12 * (1.0 + float(np.max(np.abs(hi))) + float(np.max(np.abs(lo))))
    fails = []
    if np.any(v < lo - slack) or np.any(v > hi + slack):
        fails.append("monotone solution leaves the sub/supersolution bracket")
    inc_tol = TOL_ABS + TOL_REL * float(np.max(hi - lo))
    e_hi = math.exp(float(np.max(hi)))
    shift = max(float(np.max(np.abs(prob.f.values))), float(np.max(np.abs(prob.g.values)))) * e_hi + 1.0
    weights = ops.volume_mass + ops.boundary_mass
    bound = 2.0 * inc_tol * shift * math.sqrt(float(np.sum(weights)))
    res = solvers.p2_residual_norm(m, PARAMS, prob, field)
    if not res <= bound:
        fails.append("monotone residual %.3e above %.3e" % (res, bound))
    return fails


# ---------------------------------------------------------------------------
# solver ops
# ---------------------------------------------------------------------------

def _p1(m, gamma, f_vals):
    return ProblemP1(float(gamma), DiskField(m, f_vals))


def p1_newton_op(m, gamma, c):
    prob = _p1(m, gamma, 1.0 + c * m.nodes[:, 0])
    return Op("p1_newton", lambda: solvers.solve_p1_newton(m, PARAMS, prob),
              lambda rep: check_p1(m, prob, rep.field, natural=False))


def p2_newton_op(m, c):
    data = DiskField(m, -0.5 * math.exp(-1.0) * (1.0 + c * m.nodes[:, 0]))
    prob = ProblemP2(0.5, 0.5, data, data)
    return Op("p2_newton", lambda: solvers.solve_p2_newton(m, PARAMS, prob),
              lambda rep: check_p2(m, prob, rep.field, constrained=False))


def p1_variational_op(m, gamma, f_vals):
    prob = _p1(m, gamma, f_vals)
    return Op("p1_variational", lambda: solvers.solve_p1_variational(m, PARAMS, prob),
              lambda rep: check_p1(m, prob, rep.field, natural=True))


def p2_variational_op(m, c):
    prob = ProblemP2(0.0, 0.0, DiskField(m, m.nodes[:, 0] + c), DiskField.constant(m, 0.0))
    return Op("p2_variational", lambda: solvers.solve_p2_variational(m, PARAMS, prob),
              lambda rep: check_p2(m, prob, rep.field, constrained=True))


def p2_monotone_op(m, c):
    t = m.nodes[:, 0]
    prob = ProblemP2(-1.0, -1.0, DiskField(m, 1.0 + c * t * t), DiskField.constant(m, 1.0))
    # constant bracket: a + f e^sub <= 0 needs e^sub <= 1/(1 + c); sup = 0 satisfies both
    sub = DiskField.constant(m, -math.log1p(c))
    sup = DiskField.constant(m, 0.0)
    return Op("p2_monotone", lambda: solvers.solve_p2_monotone(m, PARAMS, prob, sub, sup),
              lambda rep: check_monotone(m, prob, rep.field, sub.values, sup.values))


def newton(seed, n_rounds, tracer, work):
    """Alternate P1 and P2 damped Newton at n_rings = 128: a new factor every step."""
    rng = np.random.default_rng(seed)
    m = build(tracer, 128)
    gammas = stratified(rng, n_rounds, 0.5, 2.5)
    c1 = stratified(rng, n_rounds, -0.3, 0.3)
    c2 = stratified(rng, n_rounds, -0.2, 0.2)
    warm_up(tracer, work)
    return [[p1_newton_op(m, gammas[i], c1[i]), p2_newton_op(m, c2[i])] for i in range(n_rounds)]


def fixed_factor(seed, n_rounds, tracer, work):
    """Descent and monotone solves: one factor serves many triangular solves."""
    rng = np.random.default_rng(seed)
    m32, m64 = build(tracer, 32), build(tracer, 64)
    cs = [stratified(rng, n_rounds, lo, hi)
          for lo, hi in ((0.15, 0.25), (0.25, 0.35), (0.5, 0.6), (0.3, 0.7))]

    warm_up(tracer, work)
    return [fixed_factor_ops(m32, m64, [c[i] for c in cs]) for i in range(n_rounds)]


def fixed_factor_ops(m_small, m_big, c):
    t_small, t_big = m_small.nodes[:, 0], m_big.nodes[:, 0]
    return [p1_variational_op(m_small, 1.0, 1.0 + c[0] * t_small),
            p1_variational_op(m_big, 0.0, t_big - c[1]),
            p2_variational_op(m_big, c[2]),
            p2_monotone_op(m_big, c[3])]


# ---------------------------------------------------------------------------
# cli: in-process invocations, each with a fresh mesh and output directory
# ---------------------------------------------------------------------------

CLI_N_RINGS = 64
SCAN_THREADS = 2  # scan-gamma's --threads: the only threaded op of the benchmark
# verify's Monte Carlo identity checks are 3-sigma bands that some seeds fail by
# chance (seed 107: volume_reduction_identity_field1_3sigma), and a benchmark op
# must not fail at random, so verify keeps the CLI's default seed; its cost does
# not depend on the seed
VERIFY_SEED = 0


def _expr(x):
    # parenthesised, so a negative value parses after '*' or '+'
    return "(%r)" % float(x)


def _cli_configs(rng):
    g = "[geometry]\nl = %r\nr = %r\n[mesh]\nn_rings = %d\n" % (PARAMS.l, PARAMS.r, CLI_N_RINGS)
    gamma = rng.uniform(0.5, 2.5)
    c1, c2, c3 = rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.3)
    p2_data = "-0.5*exp(-1)*(1 + %s*t)" % _expr(c2)
    gammas = ", ".join("%r" % float(x) for x in np.sort(stratified(rng, 6, 0.5, 2.5)))
    return {
        "solve-p1": g + "[problem]\nkind = p1\ngamma = %r\nf = 1 + %s*t\n" % (float(gamma), _expr(c1)),
        "solve-p2": g + "[problem]\nkind = p2\na = 0.5\nb = 0.5\nf = %s\ng = %s\n" % (p2_data, p2_data),
        "solve-p2-monotone": g + "[problem]\nkind = p2\na = -1\nb = -1\nf = 1\ng = 1\n"
                                 "[solver]\nmethod = monotone\n",
        "mt-scan": g + "[scan]\npath = mesh\n",
        "corollary": g,
        "scan-gamma": g + "[problem]\nf = 1 + %s*t\n[scan]\ngammas = %s\n" % (_expr(c3), gammas),
        "verify": g,
    }


def _cli_args(name):
    command = "solve-p2" if name == "solve-p2-monotone" else name
    extra = {"mt-scan": ["--threads", "1"], "corollary": ["--threads", "1"],
             "scan-gamma": ["--threads", str(SCAN_THREADS)], "verify": ["--seed", str(VERIFY_SEED)]}
    return command, extra.get(name, [])


def _read_csv(out_dir):
    names = [n for n in os.listdir(out_dir) if n.endswith(".csv")]
    if len(names) != 1:
        raise FileNotFoundError("expected one CSV in %s, found %r" % (out_dir, names))
    with open(os.path.join(out_dir, names[0]), "rb") as f:
        f.readline()  # timestamp line
        return f.read()


def _problem_from_config(text, m):
    """Rebuild the solve's problem from its config, with the library's expression parser."""
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    prob = dict(cfg.items("problem"))

    def field(key):
        fn = compile_expression(prob.get(key, "0"))
        return DiskField(m, np.broadcast_to(fn(m.nodes[:, 0], m.nodes[:, 1]), (m.n_nodes,)).copy())

    if prob["kind"] == "p1":
        return ProblemP1(float(prob["gamma"]), field("f"))
    return ProblemP2(float(prob["a"]), float(prob["b"]), field("f"), field("g"))


class _CliChecker:
    """Exit codes, byte-identical CSV bodies across passes, residuals of the solutions."""

    def __init__(self, configs):
        self.configs = configs
        self.bodies = {}
        self.mesh = None

    def __call__(self, name, result):
        rc, out_dir = result
        if rc != 0:
            return ["%s exited with %d" % (name, rc)]
        body = _read_csv(out_dir)
        if name in self.bodies:
            return [] if body == self.bodies[name] else ["%s CSV body differs between passes" % name]
        self.bodies[name] = body
        if not name.startswith("solve-"):
            return []
        if self.mesh is None:
            self.mesh = mesh.build_mesh(CLI_N_RINGS)
        m = self.mesh
        values = np.loadtxt(os.path.join(out_dir, "solution.csv"), delimiter=",", skiprows=2, usecols=3)
        field = DiskField(m, values)
        prob = _problem_from_config(self.configs[name], m)
        if name == "solve-p1":
            return check_p1(m, prob, field, natural=False)
        if name == "solve-p2":
            return check_p2(m, prob, field, constrained=False)
        zero = np.zeros(m.n_nodes)  # the constant bracket of f = g = 1, a = b = -1
        return check_monotone(m, prob, field, zero, zero)


def _cli_op(name, argv, out_dir, checker):
    def run():
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv + ["--out", out_dir])
        return rc, out_dir

    return Op(name, run, lambda result: checker(name, result), span="cli." + argv[0])


def _cli_inputs(root, rng):
    """Write the configs into a fresh ``root``; returns them and each op's argv."""
    if os.path.isdir(root):
        shutil.rmtree(root)
    os.makedirs(root)
    configs = _cli_configs(rng)
    argvs = {}
    for name, text in configs.items():
        path = os.path.join(root, name + ".ini")
        with open(path, "w") as f:
            f.write(text)
        command, extra = _cli_args(name)
        argvs[name] = [command, "--config", path] + extra
    return configs, argvs


def cli_passes(seed, n_rounds, tracer, work):
    """Every CLI subcommand once per pass, in-process, at n_rings = 64."""
    root = os.path.join(work, "cli")
    configs, argvs = _cli_inputs(root, np.random.default_rng(seed))
    warm_up(tracer, work)
    checker = _CliChecker(configs)
    return [[_cli_op(name, argv, os.path.join(root, "pass%d" % i, name), checker)
             for name, argv in argvs.items()] for i in range(n_rounds)]


def warm_up(tracer, work):
    """Every op of every workload once at n_rings = 8, whichever workload runs.

    Lazy imports and first calls are paid in set-up, and a traced run sees
    every layer, so no layer's time reads a constant zero.
    """
    m = build(tracer, 8)
    ops = [p1_newton_op(m, 1.5, 0.1), p2_newton_op(m, 0.1)] + fixed_factor_ops(m, m, (0.2, 0.3, 0.55, 0.5))
    root = os.path.join(work, "warmup")
    _, argvs = _cli_inputs(root, np.random.default_rng(0))
    ops += [_cli_op(name, argv + ["--mesh", "8"], os.path.join(root, "out", name), None)
            for name, argv in argvs.items()]
    for op in ops:
        op.execute(tracer)


# name -> (function making the rounds, seconds one round takes on the reference machine)
WORKLOADS = {
    "newton": (newton, 6.3),
    "fixed_factor": (fixed_factor, 4.0),
    "cli": (cli_passes, 3.6),
}
