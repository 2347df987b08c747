import dataclasses
import json
import math
import threading
import warnings

import numpy as np
import pytest

from torusbvp import build_mesh, cli
from torusbvp.cli import _boundary_area_rule, _fmt, _rule_estimate, _solution_rows, _volume_rule, main, write_csv
from torusbvp.errors import ExistenceWindowWarning
from torusbvp.geometry import TorusParams
from torusbvp.mesh import coarse_mesh
from torusbvp.solvers import SolveReport


BASE = """
[geometry]
l = 2.0
r = 1.0

[mesh]
n_rings = 10

[problem]
kind = p1
gamma = 1.0
f = 1

[solver]
method = newton
"""


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def csv_body(path):
    return path.read_text().splitlines()[1:]


def test_solve_p1_trivial(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve-p1", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["schema_version"] == 1
    assert rep["report"]["converged"] is True
    assert rep["report"]["residual_norm"] <= 1e-10
    assert rep["report"]["field_min"] == 0.0 and rep["report"]["field_max"] == 0.0
    assert rep["config"]["problem"]["gamma"] == "1.0"
    assert (out / "solution.csv").exists()


def test_report_counts_factorizations_and_two_grid_cycles(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("n_rings = 10", "n_rings = 16").replace("f = 1", "f = 1 + 0.2*t")
                    .replace("gamma = 1.0", "gamma = 1.5"))
    out = tmp_path / "out"
    assert main(["solve-p1", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())["report"]
    fine_steps = len(rep["trace"]) - 1
    assert rep["factorizations"] == rep["iterations"] - fine_steps > 0
    assert rep["two_grid_cycles"] >= fine_steps >= 1


def test_report_body_is_the_solve_report(tmp_path):
    """report.json's report holds every SolveReport field but the field, plus its range, n_nodes and options."""
    cfg = write_cfg(tmp_path, _GEOMETRY + _P2_DATA + "[solver]\nmethod = newton\n")
    assert main(["solve-p2", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
    fields = {f.name for f in dataclasses.fields(SolveReport)} - {"field"}
    assert set(rep) == fields | {"field_min", "field_max", "n_nodes", "options"}


def test_invalid_geometry_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("l = 2.0", "l = 1.0").replace("r = 1.0", "r = 2.0"))
    assert main(["solve-p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_missing_required_option(tmp_path):
    cfg = write_cfg(tmp_path, "[geometry]\nl = 2.0\nr = 1.0\n")
    assert main(["solve-p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("command, flag, value", [
    ("scan-gamma", "--threads", "0"),
    ("scan-gamma", "--threads", "-1"),
    ("verify", "--seed", "-1"),
    ("solve-p1", "--threads", "two"),
    ("solve-p1", "--frob", "1"),
])
def test_bad_integer_flag_is_a_config_error(tmp_path, command, flag, value):
    """Checked before any work starts: no worker pool, no random generator, no output directory.

    A malformed or unknown flag is a usage error, which exits 3 as a config error does, not
    argparse's 2, which this CLI gives to non-convergence.
    """
    cfg = write_cfg(tmp_path, BASE + "[scan]\ngammas = 0.5, 1.0\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), flag, value]) == 3
    assert not (tmp_path / "o").exists()


def test_missing_config_flag_is_a_config_error(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "config error: torusbvp verify: the following arguments are required: --config\n"
    assert not (tmp_path / "o").exists()


def test_bad_expression_rejected(tmp_path, capsys):
    """An unknown call exits 3; the message quotes a bounded excerpt, also of a 300-term sum."""
    for expression in ("frob(t)", " + ".join(["t"] * 300) + " + frob(t)"):
        cfg = write_cfg(tmp_path, BASE.replace("f = 1", "f = " + expression))
        assert main(["solve-p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.splitlines()[0]) < 200


def test_nonfinite_coefficient_rejected(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("f = 1", "f = 1/(t - s)"))
    assert main(["solve-p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("expression", ["1/0", "0^(-1)", "10^400", "(-8)^(1/3)", "(-8)^(1/3) + 0*t"])
def test_constant_subexpression_that_is_not_finite_is_rejected(tmp_path, capsys, expression):
    """Constants follow float64 arithmetic, so these are inf or nan at the nodes: a config error, no traceback."""
    cfg = write_cfg(tmp_path, BASE.replace("f = 1", "f = " + expression))
    assert main(["solve-p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "non-finite at mesh nodes" in capsys.readouterr().err
    assert not (tmp_path / "o" / "solution.csv").exists()


@pytest.mark.parametrize("expression", ["(" * 300 + "t" + ")" * 300, " + ".join(["t"] * 1000)],
                         ids=["nested-300", "sum-1000"])
def test_too_deep_expression_is_a_config_error(tmp_path, capsys, expression):
    """A 300-deep nesting or a 1,000-term sum: exit 3 with a message, no traceback and no output directory."""
    cfg = write_cfg(tmp_path, BASE.replace("f = 1", "f = " + expression))
    assert main(["solve-p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()[0]) < 200
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, old, new, option", [
    ("corollary", "", "[scan]\nalpha_exps = nan\n", "[scan] alpha_exps"),
    ("scan-gamma", "", "[scan]\ngammas = 1, nan\n", "[scan] gammas"),
    ("solve-p1", "gamma = 1.0", "gamma = nan", "[problem] gamma"),
    ("solve-p1", "gamma = 1.0", "gamma = inf", "[problem] gamma"),
    ("solve-p2", "kind = p1", "a = nan", "[problem] a"),
    ("mt-scan", "", "[scan]\ndelta_frac = 1e400\n", "[scan] delta_frac"),
], ids=["corollary-nan", "scan-gamma-nan", "p1-nan", "p1-inf", "p2-nan", "mt-scan-1e400"])
def test_non_finite_config_number_is_a_config_error(tmp_path, capsys, command, old, new, option):
    """A nan, inf or overflowing number in [problem] or [scan] exits 3 naming its option, and writes nothing."""
    text = BASE.replace("n_rings = 10", "n_rings = 8")
    cfg = write_cfg(tmp_path, text.replace(old, new) if old else text + new)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: bad value for %s: " % option) and "not finite" in err
    assert not (tmp_path / "o").exists()


_LONG_LINE = "x" * 5000


@pytest.mark.parametrize("command, text, message", [
    ("solve-p1", _LONG_LINE + "\n", "MissingSectionHeaderError at line 1, 'xxx"),
    ("solve-p1", "[geometry]\n" + _LONG_LINE + "\n", "ParsingError at line 2, 'xxx"),
    ("solve-p1", None, ": No such file or directory"),
    ("solve-p1", b"[geometry]\nl = 2\xff\n", "codec can't decode byte 0xff"),
    ("solve-p1", "[geometry\nl = 2.0\n", "MissingSectionHeaderError at line 1, '[geometry'"),
    ("scan-gamma", BASE + "[scan]\ngammas = ,\n", "bad value for [scan] gammas: ',' (empty list)"),
    ("solve-p1", BASE.replace("n_rings = 10", "n_rings = 1"), "mesh n_rings must be >= 2, got 1"),
    ("mt-scan", BASE + "[scan]\npath = meshy\n", "unknown scan path 'meshy' (closed-form | mesh)"),
], ids=["long-line-no-section", "long-line-no-equals", "unreadable", "undecodable", "unclosed-section",
        "empty-list", "one-ring", "unknown-scan-path"])
def test_config_error_is_one_bounded_line(tmp_path, capsys, command, text, message):
    """Exit 3 with one stderr line under 200 characters, the path quoted at most once, and no output directory.

    The parse errors quote the bad line's excerpt and its number, not
    configparser's message, which quotes the path and every bad line whole.
    """
    path = tmp_path / "run.ini"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert err.count("\n") == 1 and len(err) < 200
    assert err.count(str(path)[:30]) <= 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, message", [
    ("solve-p1", "unknown p1 method 'x' (newton | variational)"),
    ("solve-p2", "unknown p2 method 'x' (newton | variational | monotone)"),
])
def test_unknown_solver_method_is_a_config_error(tmp_path, capsys, command, message):
    cfg = write_cfg(tmp_path, BASE.replace("method = newton", "method = x"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "config error: %s\n" % message
    assert not (tmp_path / "o" / "solution.csv").exists()


def test_solve_p1_expression_coefficient(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("f = 1", "f = 1 + t/5").replace("gamma = 1.0", "gamma = 2.0"))
    out = tmp_path / "out"
    assert main(["solve-p1", "--config", cfg, "--out", str(out)]) == 0


def test_solve_p1_variational_expression(tmp_path):
    # large positive data sit beyond the Dirichlet fold; the constrained
    # (natural-boundary) formulation still admits a solution
    cfg = write_cfg(tmp_path, BASE.replace("f = 1", "f = exp(t)*cos(s) + 2")
                    .replace("gamma = 1.0", "gamma = 0.5")
                    .replace("method = newton", "method = variational"))
    out = tmp_path / "out"
    assert main(["solve-p1", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["report"]["residual_norm"] <= 1e-8


def test_variational_overflowing_descent_trial_prints_no_traceback(tmp_path, capsys):
    """gamma = 5000, f = exp(3t) on 8 rings: a descent trial's exponential sum overflows, and is backtracked.

    Once the infinite sum reached ``math.log`` and a bare ``ValueError``
    escaped ``main``; only a library error's exit code may end the run.
    """
    cfg = write_cfg(tmp_path, BASE.replace("n_rings = 10", "n_rings = 8").replace("gamma = 1.0", "gamma = 5000")
                    .replace("f = 1", "f = exp(3*t)").replace("method = newton", "method = variational"))
    assert main(["solve-p1", "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_solve_p2_monotone_cli(tmp_path):
    text = """
[geometry]
l = 2.0
r = 1.0
[mesh]
n_rings = 8
[problem]
kind = p2
a = -1.0
b = -1.0
f = 1
g = 1
[solver]
method = monotone
"""
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve-p2", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert abs(rep["report"]["field_max"]) <= 1e-8


def test_solve_p2_nonconvergence_exit(tmp_path):
    text = """
[geometry]
l = 2.0
r = 1.0
[mesh]
n_rings = 8
[problem]
a = 1.0
b = 0.0
f = 0 - exp(-1)
g = 0
[solver]
max_iter = 1
"""
    cfg = write_cfg(tmp_path, text)
    assert main(["solve-p2", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_solve_p2_infeasible_data_exit(tmp_path, capsys):
    text = """
[geometry]
l = 2.0
r = 1.0
[mesh]
n_rings = 16
[problem]
a = 0
b = 0
f = t - 0.5
g = 0
[solver]
method = variational
"""
    cfg = write_cfg(tmp_path, text)
    assert main(["solve-p2", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "int(f) + bint(g) > 0" in capsys.readouterr().err


_P2_DATA = "[problem]\na = 0.5\nb = 0.5\nf = -0.5*exp(-1)*(1 + 0.1*t)\ng = -0.5*exp(-1)*(1 + 0.1*t)\n"
_MONOTONE_DATA = "[problem]\na = -1\nb = -1\nf = 1 + 0.3*t*t\ng = 1\n"
_GEOMETRY = "[geometry]\nl = 2.0\nr = 1.0\n[mesh]\nn_rings = 16\n"
_P1_DATA = "[problem]\ngamma = 1.5\nf = 1 + 0.2*t\n"


@pytest.mark.parametrize("command, config, extra, csv_name, header", [
    ("solve-p1", _P1_DATA + "[solver]\nmethod = newton\n", [], "solution.csv", "node,t,s,value"),
    ("solve-p1", _P1_DATA + "[solver]\nmethod = variational\n", [], "solution.csv", "node,t,s,value"),
    ("solve-p2", _P2_DATA + "[solver]\nmethod = newton\n", [], "solution.csv", "node,t,s,value"),
    ("solve-p2", _P2_DATA + "[solver]\nmethod = variational\n", [], "solution.csv", "node,t,s,value"),
    ("solve-p2", _MONOTONE_DATA + "[solver]\nmethod = monotone\n", [], "solution.csv", "node,t,s,value"),
    ("mt-scan", "", [], "mt_scan.csv",
     "alpha,grad_energy,log_integral,mean_term,ratio,C_hat,resolved_flag"),
    ("mt-scan", "[scan]\npath = mesh\nalphas = 1e-2, 1e-3, 1e-4\n", [], "mt_scan.csv",
     "alpha,grad_energy,log_integral,mean_term,ratio,C_hat,resolved_flag"),
    ("corollary", "", [], "corollary.csv", "alpha_exp,rho,value"),
    ("scan-gamma", "[problem]\nf = 1 + 0.2*t\n[scan]\ngammas = 0.5, 1.0, 1.5\n", ["--threads", "2"],
     "gamma_scan.csv", "gamma,converged,iterations,residual_norm,functional,v_min,v_max"),
    ("verify", "", ["--seed", "0"], "verify.csv", "check,measured,tolerance,passed"),
], ids=["solve-p1-newton", "solve-p1-variational", "solve-p2-newton", "solve-p2-variational",
        "solve-p2-monotone", "mt-scan-closed-form", "mt-scan-mesh", "corollary", "scan-gamma", "verify"])
def test_csv_bodies_are_deterministic(tmp_path, command, config, extra, csv_name, header):
    """Every CSV-writing run, made twice, writes the same body: only the timestamp line differs."""
    cfg = write_cfg(tmp_path, _GEOMETRY + config)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([command, "--config", cfg, "--out", str(out1)] + extra) == 0
    assert main([command, "--config", cfg, "--out", str(out2)] + extra) == 0
    assert csv_body(out1 / csv_name) == csv_body(out2 / csv_name)
    assert csv_body(out1 / csv_name)[0] == header


def test_corollary_cli(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "\n[scan]\nrhos = 0.3, 0.1\nalpha_exps = %.17g\n" % (4 * math.pi))
    out = tmp_path / "out"
    assert main(["corollary", "--config", cfg, "--out", str(out)]) == 0
    body = csv_body(out / "corollary.csv")
    assert body[0] == "alpha_exp,rho,value"
    assert len(body) == 3


def test_scan_gamma_cli(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "\n[scan]\ngammas = 0.5, 1.0\n")
    out = tmp_path / "out"
    assert main(["scan-gamma", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    body = csv_body(out / "gamma_scan.csv")
    assert len(body) == 3


def test_scan_gamma_starts_no_worker_thread_by_default(tmp_path, monkeypatch):
    """Without ``--threads`` every gamma is solved in the calling thread, and no pool is built."""
    real_solve, threads = cli.solve_p1_newton, set()

    def solve(*args, **kwargs):
        threads.add(threading.get_ident())
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_p1_newton", solve)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", None)  # a pool would raise TypeError
    cfg = write_cfg(tmp_path, BASE + "\n[scan]\ngammas = 0.5, 1.0\n")
    assert main(["scan-gamma", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert threads == {threading.get_ident()}
    assert len(csv_body(tmp_path / "out" / "gamma_scan.csv")) == 3  # the header and two rows


def test_scan_gamma_fills_every_level_cache_before_its_threads(tmp_path, monkeypatch):
    """Every level of a nested solve, the cycled ones included, finds its operators and transfer built."""
    real_solve, seen = cli.solve_p1_newton, {}

    def cache_keys(mesh):
        keys, level = [], (mesh,)
        while level is not None:
            keys.append(set(level[0]._cache))
            level = coarse_mesh(level[0])
        return keys

    def solve(mesh, *args, **kwargs):
        seen.setdefault("before", cache_keys(mesh))  # the first solve starts after the prefill
        out = real_solve(mesh, *args, **kwargs)
        seen["mesh"] = mesh
        return out

    monkeypatch.setattr(cli, "solve_p1_newton", solve)
    cfg = write_cfg(tmp_path, BASE.replace("n_rings = 10", "n_rings = 32") + "\n[scan]\ngammas = 0.5, 1.0, 1.5\n")
    assert main(["scan-gamma", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "2"]) == 0
    assert len(seen["before"]) == 5  # 32, 16, 8, 4 and 2 rings
    assert cache_keys(seen["mesh"]) == seen["before"]


def test_scan_gamma_failed_rows_count_the_steps_taken(tmp_path):
    """gamma = -40, f = 1 + 0.2 t stalls in the line search after 10 steps: the row says 10, not max_iter."""
    text = BASE.replace("n_rings = 10", "n_rings = 16").replace("f = 1\n", "f = 1 + 0.2*t\n")
    cfg = write_cfg(tmp_path, text + "\n[scan]\ngammas = -40, 1.0\n")
    out = tmp_path / "out"
    assert main(["scan-gamma", "--config", cfg, "--out", str(out), "--threads", "2"]) == 2
    rows = [row.split(",") for row in csv_body(out / "gamma_scan.csv")[1:]]
    assert [row[:3] for row in rows][0] == ["-40", "0", "10"] and rows[1][1] == "1"
    report = json.loads((out / "report.json").read_text())
    assert report["n_converged"] == 1
    [failure] = report["failures"]
    assert failure["gamma"] == -40 and failure["class"] == "NonConvergence" and failure["iterations"] == 10
    assert "line search stalled" in failure["message"]


def test_output_dir_from_environment(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, BASE)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("TORUSBVP_OUT", str(env_out))
    assert main(["solve-p1", "--config", cfg]) == 0
    assert (env_out / "report.json").exists()


@pytest.mark.parametrize("section, option, value", [("output", "dir", "run%1"), ("problem", "note", "5% off")],
                         ids=["output-dir", "unused-note"])
def test_percent_sign_in_a_config_value_is_kept_verbatim(tmp_path, monkeypatch, section, option, value):
    """A ``%`` is no interpolation: the run exits 0, writes its report and keeps the value as written."""
    header, line = "[%s]\n" % section, "%s = %s\n" % (option, value)
    cfg = write_cfg(tmp_path, BASE.replace(header, header + line) if header in BASE else BASE + "\n" + header + line)
    monkeypatch.chdir(tmp_path)  # a relative output dir lands here
    monkeypatch.delenv("TORUSBVP_OUT", raising=False)
    assert main(["solve-p1", "--config", cfg]) == 0
    out = tmp_path / ("run%1" if section == "output" else "out")
    report = json.loads((out / "report.json").read_text())
    assert report["config"][section][option] == value


def test_verify_cli(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"), "--seed", "1"]) == 0
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "vp"), "--seed", "1",
                 "--debug-perturb-weight"]) != 0
    failed = [row.split(",")[0] for row in csv_body(tmp_path / "vp" / "verify.csv")[1:] if row.endswith(",0")]
    assert failed == ["volume_reduction_identity_field%d" % k for k in range(3)]


@pytest.mark.parametrize("seed", [0, 99, 107, 124, 149])
def test_verify_passes_at_every_seed(tmp_path, seed):
    """Seeds 99, 107, 124 and 149 failed the 3-sigma bands of the Monte Carlo oracles by chance."""
    cfg = write_cfg(tmp_path, _GEOMETRY)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--mesh", "64", "--seed", str(seed)]) == 0


def test_verify_rows_without_random_fields_are_unchanged(tmp_path):
    """The rows that draw no random numbers, as the Monte Carlo version of verify wrote them.

    The two p2_constant rows measure roundoff (README, Outputs), so a change of
    elimination or summation order moves their digits here, with a stated reason.
    The order rows integrate exp(-t + 0.3 s^2), which replaced exp(t + 0.3 s^2)
    when that one failed at l/r = 1.2.
    """
    cfg = write_cfg(tmp_path, _GEOMETRY)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "0"]) == 0
    assert csv_body(tmp_path / "verify.csv")[6:] == [
        "quadrature_order_minus2_step0,0.00098058031327186157,0.29999999999999999,1",
        "quadrature_order_minus2_step1,0.00029814366282376881,0.29999999999999999,1",
        "p2_constant_solution_K,-1.4210854715202004e-14,3.9478417604357434e-07,1",
        "p2_constant_identity_614,-5.3290705182010338e-15,3.9478417604357434e-07,1",
        "blowup_exp_closed_form_2pct,-0.0009171155806712443,0.02,1",
        "blowup_grad_closed_form_2pct,-0.0019410460285511687,0.02,1",
    ]


@pytest.mark.parametrize("l, r", [(1.2, 1.0), (1.05, 1.0), (2.0, 1.0), (3.0, 0.5)])
def test_verify_order_rows_pass_at_thin_gaps(tmp_path, l, r):
    """The quadrature order rows read 2 within 0.3 at any l/r; exp(t + 0.3 s^2) read 2.67 and 1.24 at 1.2.

    verify's own P2 solve lies outside the sufficient window at l/r = 1.2 and 1.05, which is no
    warning about the user's data. main sets its own "default" filter, so the test records
    warnings: an outer "error" filter would never fire.
    """
    cfg = write_cfg(tmp_path, "[geometry]\nl = %r\nr = %r\n[mesh]\nn_rings = 16\n" % (l, r))
    with warnings.catch_warnings(record=True) as caught:
        assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "0"]) == 0
    assert [w.message for w in caught if issubclass(w.category, ExistenceWindowWarning)] == []
    rows = [row.split(",") for row in csv_body(tmp_path / "verify.csv")[1:] if row.startswith("quadrature_order")]
    assert [(row[0], row[-1]) for row in rows] == [("quadrature_order_minus2_step%d" % k, "1") for k in range(2)]


@pytest.mark.parametrize("l, r", [(2.0, 1.0), (3.0, 0.5)])
def test_verify_rules_give_the_closed_form_measures(l, r):
    p = TorusParams(l, r)
    volume, volume_err = _rule_estimate(_volume_rule, p, lambda t, s: 1.0)
    area, area_err = _rule_estimate(_boundary_area_rule, p)
    assert abs(volume - p.volume()) <= min(volume_err, 1e-13 * p.volume())
    assert abs(area - p.boundary_area()) <= min(area_err, 1e-13 * p.boundary_area())


def test_mt_scan_reports_the_limit_of_the_family_it_scans(tmp_path):
    """Closed form: the orbit (l - r, 0), limit 32 pi^2 (l - r); mesh: the orbit (l, 0), limit 32 pi^2 l."""
    limits = {}
    for path in ("closed-form", "mesh"):
        cfg = write_cfg(tmp_path, BASE + "[scan]\npath = %s\nalphas = 1e-2, 1e-3\n" % path, name=path + ".ini")
        assert main(["mt-scan", "--config", cfg, "--out", str(tmp_path / path)]) == 0
        limits[path] = json.loads((tmp_path / path / "report.json").read_text())["limit"]
    assert limits == pytest.approx({"closed-form": 32.0 * math.pi**2, "mesh": 64.0 * math.pi**2}, rel=1e-15)


@pytest.mark.parametrize("command, scan, message", [
    ("mt-scan", "path = mesh\nalphas = 1e-2, 1e-300\n", "error: exponential argument exceeds cap 700"),
    ("corollary", "rhos = 1e-300\nalpha_exps = 100\n", "error: plateau exponent 11993.5 exceeds cap 700"),
    ("mt-scan", "alphas = 1e-2, 1e-320\n", "error: the scan row at alpha 1e-320 is not finite"),
], ids=["mt-scan-mesh-cap", "corollary-cap", "mt-scan-closed-form-non-finite"])
def test_a_scan_past_its_range_is_a_library_error(tmp_path, capsys, command, scan, message):
    """An exponent past the cap, or a non-finite row, exits 1 with one error line and writes nothing."""
    cfg = write_cfg(tmp_path, BASE.replace("n_rings = 10", "n_rings = 8") + "[scan]\n" + scan)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message] and captured.out == ""
    assert not out.exists()


def test_solution_csv_matches_cell_formatting(tmp_path):
    mesh = build_mesh(2)
    values = np.linspace(-1.0, 1.0, mesh.n_nodes) / 3.0  # 17 significant digits
    values[:3] = [-0.0, 1e-300, 2.0 / 3.0]
    path = tmp_path / "solution.csv"
    write_csv(str(path), ["node", "t", "s", "value"], _solution_rows(mesh, values))
    expected = ["node,t,s,value"] + [
        ",".join(_fmt(x) for x in (i, mesh.nodes[i, 0], mesh.nodes[i, 1], values[i]))
        for i in range(mesh.n_nodes)]
    assert csv_body(path) == expected
    assert expected[1].endswith(",-0") and expected[2].endswith(",1e-300")


@pytest.mark.parametrize("command, option", [
    ("solve-p1", "tol_abs = nan"),
    ("solve-p2", "tol_rel = nan"),
    ("solve-p1", "max_iter = -1"),
    ("scan-gamma", "tol_abs = nan"),
])
def test_solver_option_that_stops_no_loop_is_a_config_error(tmp_path, capsys, command, option):
    """A NaN tolerance would print "converged in 0 iterations" for the zero field; rejected before any output."""
    cfg = write_cfg(tmp_path, BASE.replace("kind = p1\n", "a = 0.5\nb = 0.5\n") + option + "\n"
                    + "[scan]\ngammas = 0.5, 1.0\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert option.split()[0] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, option", [
    ("solve-p2", "max_iters = 1"),
    ("solve-p2", "tolabs = 1e-3"),
    ("scan-gamma", "max_iters = 1"),
])
def test_unknown_solver_option_is_a_config_error(tmp_path, capsys, command, option):
    """A misspelt option was ignored: ``max_iters = 1`` exited 0 where ``max_iter = 1`` exits 2."""
    cfg = write_cfg(tmp_path, _GEOMETRY + _P2_DATA + "[scan]\ngammas = 0.5, 1.0\n[solver]\nmethod = newton\n"
                    + option + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("config error: unknown [solver] option %r (method | tol_abs | "
                                              % option.split()[0])
    assert not (tmp_path / "o").exists()
