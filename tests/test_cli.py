import json
import math

import numpy as np
import pytest

from torusbvp import build_mesh
from torusbvp.cli import _boundary_area_rule, _fmt, _rule_estimate, _volume_rule, _write_solution_csv, main
from torusbvp.geometry import TorusParams


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
])
def test_bad_integer_flag_is_a_config_error(tmp_path, command, flag, value):
    """Checked before any work starts: no worker pool, no random generator, no output directory."""
    cfg = write_cfg(tmp_path, BASE + "[scan]\ngammas = 0.5, 1.0\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), flag, value]) == 3
    assert not (tmp_path / "o").exists()


def test_bad_expression_rejected(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("f = 1", "f = frob(t)"))
    assert main(["solve-p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_nonfinite_coefficient_rejected(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("f = 1", "f = 1/(t - s)"))
    assert main(["solve-p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


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


def test_output_dir_from_environment(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, BASE)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("TORUSBVP_OUT", str(env_out))
    assert main(["solve-p1", "--config", cfg]) == 0
    assert (env_out / "report.json").exists()


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
    """
    cfg = write_cfg(tmp_path, _GEOMETRY)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--seed", "0"]) == 0
    assert csv_body(tmp_path / "verify.csv")[6:] == [
        "quadrature_order_minus2_step0,0.046212102920078824,0.29999999999999999,1",
        "quadrature_order_minus2_step1,0.012704140931751873,0.29999999999999999,1",
        "p2_constant_solution_K,-1.4210854715202004e-14,3.9478417604357434e-07,1",
        "p2_constant_identity_614,-5.3290705182010338e-15,3.9478417604357434e-07,1",
        "blowup_exp_closed_form_2pct,-0.0009171155806712443,0.02,1",
        "blowup_grad_closed_form_2pct,-0.0019410460285511687,0.02,1",
    ]


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


def test_solution_csv_matches_cell_formatting(tmp_path):
    mesh = build_mesh(2)
    values = np.linspace(-1.0, 1.0, mesh.n_nodes) / 3.0  # 17 significant digits
    values[:3] = [-0.0, 1e-300, 2.0 / 3.0]
    path = tmp_path / "solution.csv"
    _write_solution_csv(str(path), mesh, values)
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
