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
makes every admissible datum rotation-invariant by construction.  Reports are
JSON; scan tables are CSV with 17-significant-digit values, a newline line
ending and one timestamp header line (bodies are byte-identical across runs).

Exit codes: 0 success; 1 a failed verify check, or a library error
other than non-convergence (infeasible or out-of-domain data, a singular
Jacobian, a broken sub/supersolution ordering); 2 solver non-convergence;
3 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, NonConvergence, TorusBVPError
from .expressions import compile_expression
from .functionals import ProblemP1, ProblemP2, identity_6_14_residual
from .geometry import TorusParams
from .inequalities import (
    _gauss_legendre,
    corollary_scan,
    interior_orbit_family,
    minimal_orbit_family,
    mt_scan,
)
from .mesh import (
    DiskField,
    DiskMesh,
    assemble,
    build_mesh,
    coarse_mesh,
    integrate_volume,
    transfer_pair,
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

SCHEMA_VERSION = 1
OUT_ENV_VAR = "TORUSBVP_OUT"


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as f:
            cfg.read_file(f)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except configparser.Error as exc:
        raise ConfigError("config parse error in %s: %s" % (path, exc)) from exc
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
        raise ConfigError("bad value for [%s] %s: %r (%s)" % (section, option, raw, exc)) from exc


def _float_list(raw: str):
    items = [x.strip() for x in raw.split(",") if x.strip()]
    if not items:
        raise ValueError("empty list")
    return [float(x) for x in items]


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
        raise ConfigError("coefficient [problem] %s = %r is non-finite at mesh nodes" % (option, text))
    return DiskField(mesh, vals)


def _solve_options(cfg) -> SolveOptions:
    values = {field.name: _get(cfg, "solver", field.name, type(field.default), default=field.default)
              for field in dataclasses.fields(SolveOptions)}
    try:
        return SolveOptions(**values)
    except DomainError as exc:
        raise ConfigError("invalid [solver] option: %s" % exc) from exc


def _out_dir(cfg, args) -> str:
    out = args.out or os.environ.get(OUT_ENV_VAR) or _get(cfg, "output", "dir", str, default="out")
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# report and CSV writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def write_csv(path, header, rows) -> None:
    """CSV with one timestamp comment line; the body is deterministic.

    A row that is a string is one preformatted line and is written as it is.
    """
    lines = ["# generated %s" % time.strftime("%Y-%m-%dT%H:%M:%S"), ",".join(header)]
    lines += [row if isinstance(row, str) else ",".join(map(_fmt, row)) for row in rows]
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def _report_dict(rep, mesh: DiskMesh, opts: SolveOptions) -> dict:
    return {
        "converged": bool(rep.converged),
        "iterations": int(rep.iterations),
        "residual_norm": rep.residual_norm,
        "constraint_value": rep.constraint_value,
        "multiplier": rep.multiplier,
        "functional_value": rep.functional_value,
        "field_min": float(np.min(rep.field.values)),
        "field_max": float(np.max(rep.field.values)),
        "trace": [[float(a), float(b)] for a, b in rep.trace],
        "factorizations": rep.factorizations,
        "two_grid_cycles": rep.two_grid_cycles,
        "n_nodes": mesh.n_nodes,
        "options": dataclasses.asdict(opts),  # effective values, defaults resolved
    }


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


def _write_solution_csv(path, mesh, values) -> None:
    # one format per row over Python floats renders each value as _fmt does
    columns = zip(range(mesh.n_nodes), mesh.nodes[:, 0].tolist(), mesh.nodes[:, 1].tolist(),
                  np.asarray(values, dtype=float).tolist())
    write_csv(path, ["node", "t", "s", "value"], ["%d,%.17g,%.17g,%.17g" % row for row in columns])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_solve_p1(args, cfg) -> int:
    p = _geometry(cfg)
    mesh = _mesh(cfg, args.mesh)
    gamma = _get(cfg, "problem", "gamma", float, required=True)
    prob = ProblemP1(gamma, _coefficient(cfg, mesh, "f", default="1"))
    method = _get(cfg, "solver", "method", str, default="newton")
    opts = _solve_options(cfg)
    out = _out_dir(cfg, args)
    if method == "newton":
        rep = solve_p1_newton(mesh, p, prob, opts=opts)
    elif method == "variational":
        rep = solve_p1_variational(mesh, p, prob, opts=opts)
    else:
        raise ConfigError("unknown p1 method %r (newton | variational)" % method)
    _write_solution_csv(os.path.join(out, "solution.csv"), mesh, rep.field.values)
    write_report(os.path.join(out, "report.json"), "solve-p1", cfg, p,
                 {"report": _report_dict(rep, mesh, opts), "method": method})
    print("solve-p1 [%s]: converged in %d iterations, residual %.3e"
          % (method, rep.iterations, rep.residual_norm))
    return 0


def _cmd_solve_p2(args, cfg) -> int:
    p = _geometry(cfg)
    mesh = _mesh(cfg, args.mesh)
    a = _get(cfg, "problem", "a", float, default=0.0)
    b = _get(cfg, "problem", "b", float, default=0.0)
    prob = ProblemP2(a, b, _coefficient(cfg, mesh, "f"), _coefficient(cfg, mesh, "g"))
    method = _get(cfg, "solver", "method", str, default="newton")
    opts = _solve_options(cfg)
    out = _out_dir(cfg, args)
    if method == "newton":
        rep = solve_p2_newton(mesh, p, prob, opts=opts)
    elif method == "variational":
        rep = solve_p2_variational(mesh, p, prob, opts=opts)
    elif method == "monotone":
        sub, sup = find_constant_bracket(mesh, p, prob)
        rep = solve_p2_monotone(mesh, p, prob, sub, sup, opts=opts)
    else:
        raise ConfigError("unknown p2 method %r (newton | variational | monotone)" % method)
    _write_solution_csv(os.path.join(out, "solution.csv"), mesh, rep.field.values)
    write_report(os.path.join(out, "report.json"), "solve-p2", cfg, p,
                 {"report": _report_dict(rep, mesh, opts), "method": method,
                  "identity_614_residual": identity_6_14_residual(mesh, p, rep.field, prob)})
    print("solve-p2 [%s]: converged in %d iterations, residual %.3e, K %.3e"
          % (method, rep.iterations, rep.residual_norm, rep.constraint_value))
    return 0


def _cmd_mt_scan(args, cfg) -> int:
    p = _geometry(cfg)
    alphas = _get(cfg, "scan", "alphas", _float_list,
                  default=[10.0 ** (-k) for k in range(2, 19)])
    path = _get(cfg, "scan", "path", str, default="closed-form")
    delta_frac = _get(cfg, "scan", "delta_frac", float, default=0.15)
    out = _out_dir(cfg, args)
    if path == "closed-form":
        fam = minimal_orbit_family(p, alphas[0], eps0=delta_frac)
        rows = mt_scan(None, p, fam, alphas)
    elif path == "mesh":
        mesh = _mesh(cfg, args.mesh)
        fam = interior_orbit_family(p, alphas[0])
        rows = mt_scan(mesh, p, fam, alphas)
    else:
        raise ConfigError("unknown scan path %r (closed-form | mesh)" % path)
    write_csv(os.path.join(out, "mt_scan.csv"),
              ["alpha", "grad_energy", "log_integral", "mean_term", "ratio", "C_hat", "resolved_flag"],
              [(r.alpha_blow, r.grad_energy, r.log_integral, r.mean_term, r.ratio, r.c_hat, r.resolved)
               for r in rows])
    limit = 32.0 * math.pi**2 * fam.orbit[0]  # the ratio's limit for the family's orbit radius
    write_report(os.path.join(out, "report.json"), "mt-scan", cfg, p,
                 {"path": path, "limit": limit,
                  "band_halfwidth": fam.delta / fam.orbit[0],
                  "final_ratio_slope": rows[-1].ratio_slope if len(rows) > 1 else None})
    print("mt-scan [%s]: %d points, final ratio/limit %.4f, final slope/limit %s"
          % (path, len(rows), rows[-1].ratio / limit,
             "%.6f" % (rows[-1].ratio_slope / limit) if len(rows) > 1 else "n/a"))
    return 0


def _cmd_corollary(args, cfg) -> int:
    p = _geometry(cfg)
    rhos = _get(cfg, "scan", "rhos", _float_list, default=[0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4])
    alpha_exps = _get(cfg, "scan", "alpha_exps", _float_list, default=[4.0 * math.pi, 8.0 * math.pi])
    out = _out_dir(cfg, args)
    rows = [(alpha_exp, rho, value) for alpha_exp in alpha_exps
            for rho, value in corollary_scan(p, rhos, alpha_exp)]
    write_csv(os.path.join(out, "corollary.csv"), ["alpha_exp", "rho", "value"], rows)
    write_report(os.path.join(out, "report.json"), "corollary", cfg, p,
                 {"volume": p.volume(), "rhos": rhos, "alpha_exps": alpha_exps})
    print("corollary: %d points over %d exponents" % (len(rows), len(alpha_exps)))
    return 0


def _cmd_scan_gamma(args, cfg) -> int:
    p = _geometry(cfg)
    mesh = _mesh(cfg, args.mesh)
    gammas = _get(cfg, "scan", "gammas", _float_list, required=True)
    f = _coefficient(cfg, mesh, "f", default="1")
    opts = _solve_options(cfg)
    out = _out_dir(cfg, args)
    # the worker threads share the mesh caches, so fill them first: the
    # finest level's two-grid transfer and every Newton level's operators
    level = coarse_mesh(mesh)
    if level is not None:
        transfer_pair(level[0], mesh, interior=True)
    level = (mesh,)
    while level is not None:
        assemble(level[0], p)
        level = coarse_mesh(level[0])

    def solve_one(gamma):
        prob = ProblemP1(gamma, f)
        try:
            rep = solve_p1_newton(mesh, p, prob, opts=opts)
            return (gamma, True, rep.iterations, rep.residual_norm,
                    rep.functional_value, float(rep.field.values.min()), float(rep.field.values.max()))
        except (NonConvergence, TorusBVPError):
            return (gamma, False, opts.max_iter, math.nan, math.nan, math.nan, math.nan)

    with ThreadPoolExecutor(max_workers=args.threads) as ex:
        rows = list(ex.map(solve_one, gammas))
    write_csv(os.path.join(out, "gamma_scan.csv"),
              ["gamma", "converged", "iterations", "residual_norm", "functional", "v_min", "v_max"],
              rows)
    window = 8.0 * (p.l - p.r) / (p.l * p.r**2)
    write_report(os.path.join(out, "report.json"), "scan-gamma", cfg, p,
                 {"gamma_window_upper": window, "n_converged": sum(1 for r in rows if r[1])})
    failed = [r[0] for r in rows if not r[1]]
    print("scan-gamma: %d/%d converged%s" % (len(rows) - len(failed), len(rows),
          "" if not failed else " (failed: %s)" % failed))
    return 0 if not failed else 2


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


def _cmd_verify(args, cfg) -> int:
    p = _geometry(cfg)
    mesh = _mesh(cfg, args.mesh)
    rng = np.random.default_rng(args.seed)
    out = _out_dir(cfg, args)
    perturb = getattr(args, "debug_perturb_weight", False)
    p_assembly = TorusParams(p.l, p.r * 1.05) if perturb else p
    # ring counts of h, 2h and 4h (coarser when n is odd); the order rows share these meshes
    n = round(1.0 / mesh.h)
    levels = (n, max(2, n // 2), max(2, n // 4))
    meshes = {k: mesh if k == n else build_mesh(k) for k in {*levels, 8, 16, 32, 64}}

    def exp_integral(k, fn):  # the weighted volume quadrature of exp(fn) on ring count k
        return integrate_volume(meshes[k], p_assembly, DiskField.from_function(meshes[k], fn), np.exp)

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
    # (Richardson: order from ratios of consecutive level differences)
    vals = [exp_integral(k, lambda t, s: t + 0.3 * s * s) for k in (8, 16, 32, 64)]
    diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
    orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
    for i, order in enumerate(orders):
        check("quadrature_order_minus2_step%d" % i, order - 2.0, 0.3)

    # compatibility identities on an exactly solvable Neumann problem
    prob = ProblemP2(1.0, 0.0, DiskField.constant(mesh, -math.exp(-1.0)), DiskField.constant(mesh, 0.0))
    rep = solve_p2_newton(mesh, p_assembly, prob)
    scale = p.volume()
    check("p2_constant_solution_K", rep.constraint_value, 1e-8 * scale)
    check("p2_constant_identity_614", identity_6_14_residual(mesh, p_assembly, rep.field, prob), 1e-8 * scale)

    fam = minimal_orbit_family(p, (0.05 * (p.l - p.r)) ** 2)
    from .inequalities import blowup_closed_forms, blowup_tube_disk_quadrature

    ce, cg = blowup_closed_forms(fam)
    me, mg = blowup_tube_disk_quadrature(mesh, fam)
    check("blowup_exp_closed_form_2pct", (me - ce) / ce, 0.02)
    check("blowup_grad_closed_form_2pct", (mg - cg) / cg, 0.02)

    write_csv(os.path.join(out, "verify.csv"), ["check", "measured", "tolerance", "passed"], checks)
    write_report(os.path.join(out, "report.json"), "verify", cfg, p,
                 {"checks": [{"name": n, "measured": m, "tolerance": t, "passed": bool(ok)}
                             for n, m, t, ok in checks],
                  "seed": args.seed, "perturbed": bool(perturb)})
    n_fail = sum(1 for *_, ok in checks if not ok)
    for name, measured, tol, ok in checks:
        print("%-42s %12.4e (tol %10.4e)  %s" % (name, measured, tol, "PASS" if ok else "FAIL"))
    print("verify: %d/%d checks passed" % (len(checks) - n_fail, len(checks)))
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="torusbvp", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version="torusbvp %s" % __version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve-p1", "solve-p2", "mt-scan", "corollary", "verify", "scan-gamma"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="INI config path")
        sp.add_argument("--out", default=None, help="output directory (default: config, env %s, or ./out)" % OUT_ENV_VAR)
        sp.add_argument("--mesh", type=int, default=None, help="override mesh n_rings")
        sp.add_argument("--seed", type=int, default=0, help="seed of verify's random smooth test fields")
        sp.add_argument("--threads", type=int, default=None, help="worker threads for the scan-gamma sweep")
        if name == "verify":
            sp.add_argument("--debug-perturb-weight", action="store_true",
                            help="perturb the metric weight to force identity failures")
    return ap


_DISPATCH = {
    "solve-p1": _cmd_solve_p1,
    "solve-p2": _cmd_solve_p2,
    "mt-scan": _cmd_mt_scan,
    "corollary": _cmd_corollary,
    "verify": _cmd_verify,
    "scan-gamma": _cmd_scan_gamma,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError("--threads must be at least 1, got %d" % args.threads)
        if args.seed < 0:
            raise ConfigError("--seed must be nonnegative, got %d" % args.seed)
        cfg = _load_config(args.config)
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return _DISPATCH[args.command](args, cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 3
    except NonConvergence as exc:
        print("solver did not converge: %s" % exc, file=sys.stderr)
        return 2
    except TorusBVPError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
