"""Configuration-driven command line: solves, scans, identity verification.

Configs are INI files with sections mirroring the run setup::

    [geometry]          [mesh]            [problem]
    l = 2.0             n_rings = 16      kind = p1
    r = 1.0                               gamma = 1.0
                                          f = 1

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
import json
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .errors import ConfigError, NonConvergence, TorusBVPError
from .expressions import compile_expression
from .functionals import ProblemP1, ProblemP2, identity_6_14_residual
from .geometry import TorusParams
from .inequalities import (
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
    dissection_order,
    integrate_volume,
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
    opts = SolveOptions()
    opts.tol_abs = _get(cfg, "solver", "tol_abs", float, default=opts.tol_abs)
    opts.tol_rel = _get(cfg, "solver", "tol_rel", float, default=opts.tol_rel)
    opts.max_iter = _get(cfg, "solver", "max_iter", int, default=opts.max_iter)
    opts.max_descent_iter = _get(cfg, "solver", "max_descent_iter", int, default=opts.max_descent_iter)
    opts.max_monotone_iter = _get(cfg, "solver", "max_monotone_iter", int, default=opts.max_monotone_iter)
    return opts


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

    A string cell is written as it is, so a row may be one preformatted line.
    """
    with open(path, "w", newline="") as f:
        f.write("# generated %s\n" % time.strftime("%Y-%m-%dT%H:%M:%S"))
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")


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
        "n_nodes": mesh.n_nodes,
        "options": {  # effective values, defaults resolved
            "tol_abs": opts.tol_abs,
            "tol_rel": opts.tol_rel,
            "max_iter": opts.max_iter,
            "max_descent_iter": opts.max_descent_iter,
            "max_monotone_iter": opts.max_monotone_iter,
        },
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
    write_csv(path, ["node", "t", "s", "value"], [("%d,%.17g,%.17g,%.17g" % row,) for row in columns])


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
    write_report(os.path.join(out, "report.json"), "mt-scan", cfg, p,
                 {"path": path, "limit": 32.0 * math.pi**2 * (p.l - p.r),
                  "band_halfwidth": fam.delta / fam.orbit[0],
                  "final_ratio_slope": rows[-1].ratio_slope if len(rows) > 1 else None})
    print("mt-scan [%s]: %d points, final ratio/limit %.4f, final slope/limit %s"
          % (path, len(rows), rows[-1].ratio / (32.0 * math.pi**2 * (p.l - p.r)),
             "%.6f" % (rows[-1].ratio_slope / (32.0 * math.pi**2 * (p.l - p.r))) if len(rows) > 1 else "n/a"))
    return 0


def _cmd_corollary(args, cfg) -> int:
    p = _geometry(cfg)
    rhos = _get(cfg, "scan", "rhos", _float_list, default=[0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4, 1e-4])
    alpha_exps = _get(cfg, "scan", "alpha_exps", _float_list, default=[4.0 * math.pi, 8.0 * math.pi])
    out = _out_dir(cfg, args)
    rows = []
    with ThreadPoolExecutor(max_workers=args.threads) as ex:
        scans = list(ex.map(lambda a: corollary_scan(p, rhos, a), alpha_exps))
    for alpha_exp, scan in zip(alpha_exps, scans):
        for rho, value in scan:
            rows.append((alpha_exp, rho, value))
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
    level = (mesh,)
    while level is not None:  # fill the caches of every Newton level before the workers share them
        assemble(level[0], p)
        dissection_order(level[0])
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

def _mc_volume(p: TorusParams, n: int, rng) -> tuple:
    box = np.array([p.l + p.r, p.l + p.r, p.r])
    pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * box
    inside = (np.hypot(pts[:, 0], pts[:, 1]) - p.l) ** 2 + pts[:, 2] ** 2 <= p.r**2
    box_vol = 8.0 * box.prod()
    frac = inside.mean()
    est = box_vol * frac
    sigma = box_vol * math.sqrt(max(frac * (1 - frac), 1e-30) / n)
    return est, sigma


def _mc_boundary_area(p: TorusParams, n: int, rng) -> tuple:
    om = rng.uniform(0.0, 2.0 * math.pi, size=n)
    u = rng.uniform(0.0, 2.0 * math.pi, size=n)
    s_om = np.stack([-np.sin(om) * (p.l + p.r * np.cos(u)),
                     np.cos(om) * (p.l + p.r * np.cos(u)),
                     np.zeros(n)], axis=1)
    s_u = np.stack([-p.r * np.sin(u) * np.cos(om),
                    -p.r * np.sin(u) * np.sin(om),
                    p.r * np.cos(u)], axis=1)
    elem = np.linalg.norm(np.cross(s_om, s_u), axis=1)
    area = (2.0 * math.pi) ** 2
    est = area * elem.mean()
    sigma = area * elem.std(ddof=1) / math.sqrt(n)
    return est, sigma


def _mc_volume_integral(p: TorusParams, fn, n: int, rng) -> tuple:
    box = np.array([p.l + p.r, p.l + p.r, p.r])
    pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * box
    rho = np.hypot(pts[:, 0], pts[:, 1])
    inside = (rho - p.l) ** 2 + pts[:, 2] ** 2 <= p.r**2
    t = (rho[inside] - p.l) / p.r
    s = pts[inside, 2] / p.r
    vals = np.zeros(n)
    vals[inside] = fn(t, s)
    box_vol = 8.0 * box.prod()
    est = box_vol * vals.mean()
    sigma = box_vol * vals.std(ddof=1) / math.sqrt(n)
    return est, sigma


def _cmd_verify(args, cfg) -> int:
    p = _geometry(cfg)
    mesh = _mesh(cfg, args.mesh)
    rng = np.random.default_rng(args.seed)
    out = _out_dir(cfg, args)
    perturb = getattr(args, "debug_perturb_weight", False)
    p_assembly = TorusParams(p.l, p.r * 1.05) if perturb else p

    checks = []

    def check(name, measured, tol):
        checks.append((name, float(measured), float(tol), abs(measured) <= tol))

    est, sigma = _mc_volume(p, 200_000, rng)
    check("volume_vs_mc_3sigma", est - p.volume(), 3.0 * sigma)
    est, sigma = _mc_boundary_area(p, 200_000, rng)
    check("boundary_area_vs_mc_3sigma", est - p.boundary_area(), 3.0 * sigma)

    for k in range(3):
        coef = rng.normal(0.0, 0.35, size=6)

        def smooth(t, s, c=coef):
            return c[0] + c[1] * t + c[2] * s + c[3] * t * s + c[4] * (t * t - s * s) + c[5] * np.sin(t + s)

        field = DiskField.from_function(mesh, smooth)
        quad = integrate_volume(mesh, p_assembly, field, np.exp)
        est, sigma = _mc_volume_integral(p, lambda t, s: np.exp(smooth(t, s)), 200_000, rng)
        check("volume_reduction_identity_field%d_3sigma" % k, quad - est, 3.0 * sigma)

    # mesh-refinement convergence of the weighted volume quadrature
    # (Richardson: order from ratios of consecutive level differences)
    def exp_integral(n):
        m = build_mesh(n)
        fld = DiskField.from_function(m, lambda t, s: t + 0.3 * s * s)
        return integrate_volume(m, p_assembly, fld, np.exp)

    vals = [exp_integral(n) for n in (8, 16, 32, 64)]
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
        sp.add_argument("--seed", type=int, default=0, help="RNG seed (Monte Carlo oracles only)")
        sp.add_argument("--threads", type=int, default=None, help="worker threads for the corollary and scan-gamma sweeps")
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
