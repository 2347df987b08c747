"""Configuration-driven command line: solves, scans, identity verification.

Configs are INI files with sections mirroring the run setup::

    [geometry]          [mesh]            [problem]
    l = 2.0             n_rings = 16      gamma = 1.0
    r = 1.0                               f = 1

    [solver]                              [scan]
    method = newton                       alphas = 1e-2, 1e-4, 1e-6
    tol_abs = 1e-10                       rhos = 0.3, 0.1, 0.03
    max_iter = 50                         alpha_exps = 12.566, 25.133

Coefficients are analytic expressions in the disk coordinates (t, s), which
makes every admissible datum rotation-invariant by construction.  They use
Python's arithmetic and precedence over numbers, t, s, pi, e and
exp/ln/sin/cos, with ``^`` for ``**``: ``-t^2`` is ``-(t^2)``.  An
expression outside that grammar, or nested too deeply to parse, exits 3,
as does a number in [problem] or [scan] that is not finite.
Reports are JSON; scan tables are CSV with 17-significant-digit values, a
newline line ending and one timestamp header line (bodies are
byte-identical across runs).

Exit codes: 0 success; 1 a failed verify check, or a library error
other than non-convergence (infeasible or out-of-domain data, a singular
Jacobian, a broken sub/supersolution ordering, an exponent past the cap);
2 solver non-convergence; 3 configuration or usage error.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, ExistenceWindowWarning, NonConvergence, TorusBVPError
from .expressions import compile_expression, excerpt
from .functionals import ProblemP1, ProblemP2, exp_capped, identity_6_14_residual
from .geometry import TorusParams
from .inequalities import (
    _gauss_legendre,
    blowup_closed_forms,
    blowup_tube_disk_quadrature,
    corollary_scan,
    interior_orbit_family,
    minimal_orbit_family,
    mt_scan,
    mu_best,
)
from .mesh import (
    DiskField,
    DiskMesh,
    _ring_blocks,
    assemble,
    build_mesh,
    coarse_mesh,
    integrate_volume,
    weighted_sum,
)
from .solvers import (
    SolveOptions,
    find_constant_bracket,
    solve_p1_newton,
    solve_p1_variational,
    solve_p2_monotone,
    solve_p2_newton,
    solve_p2_variational,
)

SCHEMA_VERSION = 2
OUT_ENV_VAR = "TORUSBVP_OUT"
_ROWS_PER_WRITE = 1024  # write_csv formats, joins and writes this many rows at a time: some 70 kB of text


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _load_config(path: str) -> configparser.ConfigParser:
    # values are read verbatim: a "%" is a character, not an interpolation
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path) as f:
            cfg.read_string(text := f.read())
    except (OSError, UnicodeError) as exc:  # an OSError's text repeats the path
        raise ConfigError("cannot read config %s: %s" % (excerpt(path), getattr(exc, "strerror", exc))) from exc
    except configparser.Error as exc:
        # configparser quotes the path and every bad line whole, over several lines: name the first
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        raise ConfigError("cannot parse config: %s at line %d, %s" % (
            type(exc).__name__, lineno, excerpt(text.split("\n")[lineno - 1]))) from exc
    return cfg


def _get(cfg, section, option, cast, default=None, required=False):
    if not cfg.has_option(section, option):
        if required:
            raise ConfigError("missing required option [%s] %s" % (section, option))
        return default
    raw = cfg.get(section, option)
    try:
        return cast(raw)
    except (ValueError, ConfigError) as exc:
        # float() and int() repeat the whole text after a colon; the excerpt quotes it
        raise ConfigError("bad value for [%s] %s: %s (%s)" % (section, option, excerpt(raw),
                                                             str(exc).split(":")[0])) from exc


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _float_list(raw: str):
    items = [x.strip() for x in raw.split(",") if x.strip()]
    if not items:
        raise ValueError("empty list")
    return [_finite(x) for x in items]


def _effective_config(cfg) -> dict:
    return {section: dict(cfg.items(section)) for section in cfg.sections()}


def _geometry(cfg) -> TorusParams:
    l = _get(cfg, "geometry", "l", float, required=True)
    r = _get(cfg, "geometry", "r", float, required=True)
    try:
        return TorusParams(l, r)
    except TorusBVPError as exc:
        raise ConfigError("invalid geometry: %s (l must exceed r, both positive)" % exc) from exc


def _mesh(cfg, override=None) -> DiskMesh:
    n = override if override is not None else _get(cfg, "mesh", "n_rings", int, default=16)
    if n < 2:
        raise ConfigError("mesh n_rings must be >= 2, got %d" % n)
    return build_mesh(n)


def _coefficient(cfg, mesh, option, default="0") -> DiskField:
    text = _get(cfg, "problem", option, str, default=default)
    fn = compile_expression(text)
    vals = fn(mesh.nodes[:, 0], mesh.nodes[:, 1])
    if not np.all(np.isfinite(vals)):
        raise ConfigError("coefficient [problem] %s = %s is non-finite at mesh nodes" % (option, excerpt(text)))
    return DiskField(mesh, vals)


def _solve_options(cfg) -> SolveOptions:
    defaults = {field.name: field.default for field in dataclasses.fields(SolveOptions)}
    for option in cfg.options("solver") if cfg.has_section("solver") else ():
        if option != "method" and option not in defaults:
            raise ConfigError("unknown [solver] option %s (method | %s)" % (excerpt(option), " | ".join(defaults)))
    values = {name: _get(cfg, "solver", name, type(default), default=default) for name, default in defaults.items()}
    try:
        return SolveOptions(**values)
    except DomainError as exc:
        raise ConfigError("invalid [solver] option: %s" % exc) from exc


def _out_dir(cfg, args) -> str:
    # checked before the run and made after it, so a run that fails leaves no directory
    out = args.out or os.environ.get(OUT_ENV_VAR) or _get(cfg, "output", "dir", str, default="out")
    existing = os.path.abspath(out)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError("cannot make output directory %s: Not a directory" % excerpt(out))
    return out


# ---------------------------------------------------------------------------
# report and CSV writers
# ---------------------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """CSV with one timestamp comment line; the body is deterministic.

    ``rows`` is any iterable of tuples with one type per column, a one-shot
    generator among them.  The first row sets each column's format for
    every row: ``%s`` for a string, ``%.17g`` for any number.  17 digits
    round-trip every float64; a flag prints as 1 or 0, and an integer below
    10^17 (every count and index a CSV holds) as itself.  The rows are
    formatted, joined and written ``_ROWS_PER_WRITE`` at a time, so the
    text of one block at most is held.
    """
    rows = iter(rows)
    first = next(rows, None)
    row_format = ",".join("%s" if isinstance(x, str) else "%.17g" for x in first or ())
    with open(path, "w", newline="") as f:
        f.write("# generated %s\n%s\n" % (time.strftime("%Y-%m-%dT%H:%M:%S"), ",".join(header)))
        rows = itertools.chain([first], rows) if first is not None else rows
        while lines := [row_format % row for row in itertools.islice(rows, _ROWS_PER_WRITE)]:
            f.write("\n".join(lines) + "\n")


def _report_dict(rep, mesh: DiskMesh, opts: SolveOptions) -> dict:
    """``rep``'s fields, its field by its range, plus the node count and the options."""
    body = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "field"}
    body.update(field_min=float(np.min(rep.field.values)), field_max=float(np.max(rep.field.values)),
                n_nodes=mesh.n_nodes, options=dataclasses.asdict(opts))  # effective values, defaults resolved
    return body


def write_report(path, command, cfg, p: TorusParams, body: dict) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": _effective_config(cfg),
        "geometry": {"l": p.l, "r": p.r, "volume": p.volume(), "boundary_area": p.boundary_area()},
        "versions": {
            "torusbvp": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    doc.update(body)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# subcommands: each returns (csv_name, header, rows, report body, summary, exit status)
# and writes nothing; main writes the outputs
# ---------------------------------------------------------------------------

def _cmd_solve(args, cfg, p) -> tuple:
    p1 = args.command == "solve-p1"
    mesh = _mesh(cfg, args.mesh)
    if p1:
        gamma = _get(cfg, "problem", "gamma", _finite, required=True)
        prob = ProblemP1(gamma, _coefficient(cfg, mesh, "f", default="1"))
    else:
        a = _get(cfg, "problem", "a", _finite, default=0.0)
        b = _get(cfg, "problem", "b", _finite, default=0.0)
        prob = ProblemP2(a, b, _coefficient(cfg, mesh, "f"), _coefficient(cfg, mesh, "g"))
    method = _get(cfg, "solver", "method", str, default="newton")
    opts = _solve_options(cfg)
    # looked up per call, so a patched module name is the one that runs
    methods = ({"newton": solve_p1_newton, "variational": solve_p1_variational} if p1 else
               {"newton": solve_p2_newton, "variational": solve_p2_variational,
                "monotone": lambda *data, opts: solve_p2_monotone(*data, *find_constant_bracket(*data), opts=opts)})
    if method not in methods:
        raise ConfigError("unknown %s method %s (%s)" % (args.command[6:], excerpt(method), " | ".join(methods)))
    rep = methods[method](mesh, p, prob, opts=opts)
    body = {"report": _report_dict(rep, mesh, opts), "method": method}
    line = "%s [%s]: converged in %d iterations, residual %.3e" % (args.command, method, rep.iterations,
                                                                   rep.residual_norm)
    if not p1:
        body["identity_614_residual"] = identity_6_14_residual(mesh, p, rep.field, prob)
        line += ", K %.3e" % rep.constraint_value
    return "solution.csv", ["node", "t", "s", "value"], _node_rows(mesh, rep.field.values), body, line, 0


def _node_rows(mesh, values):
    """The rows ``(node, t, s, value)`` of the solution table, made a ring block of nodes at a time (``_ring_blocks``)."""
    for _, lo, hi in _ring_blocks(mesh.n_rings):
        yield from zip(range(lo, hi), *mesh.nodes[lo:hi].T.tolist(), values[lo:hi].tolist())


def _cmd_mt_scan(args, cfg, p) -> tuple:
    alphas = _get(cfg, "scan", "alphas", _float_list,
                  default=[10.0 ** (-k) for k in range(2, 19)])
    path = _get(cfg, "scan", "path", str, default="closed-form")
    delta_frac = _get(cfg, "scan", "delta_frac", _finite, default=0.15)
    if path == "closed-form":
        fam = minimal_orbit_family(p, alphas[0], eps0=delta_frac)
        rows = mt_scan(None, p, fam, alphas)
    elif path == "mesh":
        mesh = _mesh(cfg, args.mesh)
        fam = interior_orbit_family(p, alphas[0])
        rows = mt_scan(mesh, p, fam, alphas)
    else:
        raise ConfigError("unknown scan path %s (closed-form | mesh)" % excerpt(path))
    limit = 32.0 * math.pi**2 * fam.orbit[0]  # the ratio's limit for the family's orbit radius
    body = {"path": path, "limit": limit, "band_halfwidth": fam.delta / fam.orbit[0],
            "final_ratio_slope": rows[-1].ratio_slope if len(rows) > 1 else None}
    summary = ("mt-scan [%s]: %d points, final ratio/limit %.4f, final slope/limit %s"
               % (path, len(rows), rows[-1].ratio / limit,
                  "%.6f" % (rows[-1].ratio_slope / limit) if len(rows) > 1 else "n/a"))
    return ("mt_scan.csv", ["alpha", "grad_energy", "log_integral", "mean_term", "ratio", "C_hat", "resolved_flag"],
            [(r.alpha_blow, r.grad_energy, r.log_integral, r.mean_term, r.ratio, r.c_hat, r.resolved)
             for r in rows], body, summary, 0)


def _cmd_corollary(args, cfg, p) -> tuple:
    rhos = _get(cfg, "scan", "rhos", _float_list, default=[0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4])
    alpha_exps = _get(cfg, "scan", "alpha_exps", _float_list, default=[4.0 * math.pi, 8.0 * math.pi])
    rows = [(alpha_exp, rho, value) for alpha_exp in alpha_exps
            for rho, value in corollary_scan(p, rhos, alpha_exp)]
    return ("corollary.csv", ["alpha_exp", "rho", "value"], rows,
            {"volume": p.volume(), "rhos": rhos, "alpha_exps": alpha_exps},
            "corollary: %d points over %d exponents" % (len(rows), len(alpha_exps)), 0)


def _cmd_scan_gamma(args, cfg, p) -> tuple:
    mesh = _mesh(cfg, args.mesh)
    gammas = _get(cfg, "scan", "gammas", _float_list, required=True)
    f = _coefficient(cfg, mesh, "f", default="1")
    opts = _solve_options(cfg)
    # the solving threads share the mesh caches, so fill them first, level by
    # level: the operators that every Newton record reads, and the level below
    # with both its transfers (coarse_mesh).
    # assemble is called here by name: perfbench/tracing.py patches cli.assemble
    level = (mesh,)
    while level is not None:
        assemble(level[0], p)
        level = coarse_mesh(level[0])

    def solve_one(gamma):
        prob = ProblemP1(gamma, f)
        try:
            rep = solve_p1_newton(mesh, p, prob, opts=opts)
            return (gamma, True, rep.iterations, rep.residual_norm,
                    rep.functional_value, float(rep.field.values.min()), float(rep.field.values.max())), None
        except TorusBVPError as exc:
            # the Newton steps taken, which only a NonConvergence counts
            steps = exc.iterations if isinstance(exc, NonConvergence) else None
            failure = {"gamma": gamma, "class": type(exc).__name__, "message": str(exc), "iterations": steps}
            return (gamma, False, math.nan if steps is None else steps,
                    math.nan, math.nan, math.nan, math.nan), failure

    # the calling thread is one of the n solving threads: it solves every n-th gamma and a
    # pool of n - 1 threads the rest, so no thread waits idle and one thread builds no pool
    n = args.threads
    with ThreadPoolExecutor(max_workers=n - 1) if n > 1 else contextlib.nullcontext() as pool:
        pooled = {i: pool.submit(solve_one, gamma) for i, gamma in enumerate(gammas) if i % n}
        own = {i: solve_one(gamma) for i, gamma in enumerate(gammas) if i % n == 0}
        rows, failures = zip(*(own[i] if i in own else pooled[i].result() for i in range(len(gammas))))
    failures = [f for f in failures if f is not None]
    window = 1.0 / (2.0 * mu_best(p, "interior_dirichlet")) / p.volume()  # _admit's P1 bound on R, as a gamma
    body = {"gamma_window_upper": window, "n_converged": len(rows) - len(failures), "failures": failures}
    failed = [r["gamma"] for r in failures]
    summary = "scan-gamma: %d/%d converged%s" % (len(rows) - len(failed), len(rows),
                                                 "" if not failed else " (failed: %s)" % failed)
    return ("gamma_scan.csv", ["gamma", "converged", "iterations", "residual_norm", "functional", "v_min", "v_max"],
            rows, body, summary, 0 if not failed else 2)


# ---------------------------------------------------------------------------
# verify: identity suite
# ---------------------------------------------------------------------------

def _volume_rule(p: TorusParams, fn, n: int) -> float:
    """Torus integral of ``fn(t, s)`` by n x n Gauss-Legendre in cylindrical coordinates:
    ``z = r sin(theta)`` keeps square roots out of the chord ``l -+ r cos(theta)`` that
    ``rho`` runs over; the Jacobian is ``rho`` and the azimuth gives 2 pi."""
    x, w = _gauss_legendre(n)
    theta = 0.5 * math.pi * x
    half = p.r * np.cos(theta)  # half chord at height z = r sin(theta)
    rho = p.l + np.outer(half, x)
    # 2 pi (azimuth) * (pi/2) w_i r cos(theta_i) (dz) * half_i w_j (drho) * rho
    weights = math.pi**2 * np.outer(w * half**2, w) * rho
    values = fn((rho - p.l) / p.r, np.sin(theta)[:, None])
    return weighted_sum(weights.ravel(), np.broadcast_to(values, rho.shape).ravel())


def _boundary_area_rule(p: TorusParams, n: int) -> float:
    """Boundary area: periodic trapezoid rule in (omega, u) over the embedding's area element."""
    angles = np.arange(n) * (2.0 * math.pi / n)
    om, u = (a.ravel() for a in np.meshgrid(angles, angles))
    ring = p.l + p.r * np.cos(u)
    s_om = np.stack([-np.sin(om) * ring, np.cos(om) * ring, np.zeros(om.size)], axis=1)
    s_u = p.r * np.stack([-np.sin(u) * np.cos(om), -np.sin(u) * np.sin(om), np.cos(u)], axis=1)
    elem = np.linalg.norm(np.cross(s_om, s_u), axis=1)
    return weighted_sum(np.full(om.size, (2.0 * math.pi / n) ** 2), elem)


def _rule_estimate(rule, *args) -> tuple:
    """``rule(*args, 48)`` and a bound on its error: the difference from order 32, as both
    converge exponentially, plus ``64 eps`` of the value for the roundoff of numpy's nodes
    and weights and of the sum (measured: at most 20 eps on verify's integrands)."""
    coarse, fine = rule(*args, 32), rule(*args, 48)
    return fine, abs(fine - coarse) + 64.0 * np.finfo(float).eps * abs(fine)


def _cmd_verify(args, cfg, p) -> tuple:
    mesh = _mesh(cfg, args.mesh)
    rng = np.random.default_rng(args.seed)
    perturb = args.debug_perturb_weight
    p_assembly = TorusParams(p.l, p.r * 1.05) if perturb else p
    # ring counts of h, 2h and 4h (coarser when n is odd); the order rows share these meshes
    n = mesh.n_rings
    levels = (n, max(2, n // 2), max(2, n // 4))
    chain = {n: mesh}  # the coarse_mesh levels, whose operators the P2 solve below assembles too
    while (level := coarse_mesh(chain[min(chain)])) is not None:
        chain[level[0].n_rings] = level[0]
    meshes = {k: chain.get(k) or build_mesh(k) for k in {*levels, 8, 16, 32, 64}}

    def exp_integral(k, fn):  # the weighted volume quadrature of exp(fn) on ring count k
        return integrate_volume(meshes[k], p_assembly, DiskField.from_function(meshes[k], lambda t, s: exp_capped(fn(t, s))))

    checks = []

    def check(name, measured, tol):
        checks.append((name, float(measured), float(tol), abs(measured) <= tol))

    volume, err = _rule_estimate(_volume_rule, p, lambda t, s: 1.0)
    check("volume_vs_gauss_rule", volume - p.volume(), err)
    area, err = _rule_estimate(_boundary_area_rule, p)
    check("boundary_area_vs_trapezoid_rule", area - p.boundary_area(), err)

    for k in range(3):
        coef = rng.normal(0.0, 0.35, size=6)

        def smooth(t, s, c=coef):
            return c[0] + c[1] * t + c[2] * s + c[3] * t * s + c[4] * (t * t - s * s) + c[5] * np.sin(t + s)

        q_h, q_2h, q_4h = (exp_integral(j, smooth) for j in levels)
        exact, err = _rule_estimate(_volume_rule, p, lambda t, s: np.exp(smooth(t, s)))
        # |Q_h - Q_2h| is three times Richardson's estimate of Q_h's O(h^2) error; the next
        # difference over 4 covers a mesh where the h^2 term cancels against higher ones
        mesh_err = max(abs(q_h - q_2h), abs(q_2h - q_4h) / 4.0)
        check("volume_reduction_identity_field%d" % k, q_h - exact, mesh_err + err)

    # mesh-refinement convergence of the weighted volume quadrature
    # (Richardson: order from ratios of consecutive level differences).  The
    # order depends on l/r alone; for exp(-t + 0.3 s^2) it is within 0.01 of
    # 2 over l/r in [1.01, 100], where exp(t + 0.3 s^2) strays by 0.76 at 1.2
    vals = [exp_integral(k, lambda t, s: -t + 0.3 * s * s) for k in (8, 16, 32, 64)]
    diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
    orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
    for i, order in enumerate(orders):
        check("quadrature_order_minus2_step%d" % i, order - 2.0, 0.3)

    # compatibility identities on an exactly solvable Neumann problem (v = 1); at thin gaps
    # its R lies outside the sufficient window, a warning about data the user never gave
    prob = ProblemP2(1.0, 0.0, DiskField.constant(mesh, -math.exp(-1.0)), DiskField.constant(mesh, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExistenceWindowWarning)
        rep = solve_p2_newton(mesh, p_assembly, prob)
    scale = p.volume()
    check("p2_constant_solution_K", rep.constraint_value, 1e-8 * scale)
    check("p2_constant_identity_614", identity_6_14_residual(mesh, p_assembly, rep.field, prob), 1e-8 * scale)

    fam = minimal_orbit_family(p, (0.05 * (p.l - p.r)) ** 2)
    ce, cg = blowup_closed_forms(fam)
    me, mg = blowup_tube_disk_quadrature(mesh, fam)
    check("blowup_exp_closed_form_2pct", (me - ce) / ce, 0.02)
    check("blowup_grad_closed_form_2pct", (mg - cg) / cg, 0.02)

    body = {"checks": [{"name": n, "measured": m, "tolerance": t, "passed": bool(ok)} for n, m, t, ok in checks],
            "seed": args.seed, "perturbed": perturb}
    n_fail = sum(1 for *_, ok in checks if not ok)
    lines = ["%-42s %12.4e (tol %10.4e)  %s" % (name, measured, tol, "PASS" if ok else "FAIL")
             for name, measured, tol, ok in checks]
    lines.append("verify: %d/%d checks passed" % (len(checks) - n_fail, len(checks)))
    return ("verify.csv", ["check", "measured", "tolerance", "passed"], checks, body, "\n".join(lines),
            0 if n_fail == 0 else 1)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_DISPATCH = {
    "solve-p1": _cmd_solve,
    "solve-p2": _cmd_solve,
    "mt-scan": _cmd_mt_scan,
    "corollary": _cmd_corollary,
    "verify": _cmd_verify,
    "scan-gamma": _cmd_scan_gamma,
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: argparse's own exit 2 is non-convergence here."""

    def error(self, message):
        raise ConfigError("%s: %s" % (self.prog, message))


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="torusbvp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version="torusbvp %s" % __version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="INI config path")
        sp.add_argument("--out", default=None, help="output directory (default: config, env %s, or ./out)" % OUT_ENV_VAR)
        sp.add_argument("--mesh", type=int, default=None, help="override mesh n_rings")
        sp.add_argument("--seed", type=int, default=0, help="seed of verify's random smooth test fields")
        sp.add_argument("--threads", type=int, default=1,
                        help="threads that solve the scan-gamma sweep, the calling thread among them")
        if name == "verify":
            sp.add_argument("--debug-perturb-weight", action="store_true",
                            help="perturb the metric weight to force identity failures")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1, got %d" % args.threads)
        if args.seed < 0:
            raise ConfigError("--seed must be nonnegative, got %d" % args.seed)
        cfg = _load_config(args.config)
        p = _geometry(cfg)
        out = _out_dir(cfg, args)
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            csv_name, header, rows, body, summary, status = _DISPATCH[args.command](args, cfg, p)
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError("cannot make output directory %s: %s" % (excerpt(out), exc.strerror)) from exc
        path = os.path.join(out, csv_name)
        try:
            write_csv(path, header, rows)
            path = os.path.join(out, "report.json")
            write_report(path, args.command, cfg, p, body)
        except OSError as exc:
            raise ConfigError("cannot write output file %s: %s" % (excerpt(path), exc.strerror)) from exc
        print(summary)
        return status
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 3
    except NonConvergence as exc:
        print("solver did not converge: %s" % exc, file=sys.stderr)
        return 2
    except (TorusBVPError, OverflowError) as exc:  # an exponent past the cap is a library error too
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
