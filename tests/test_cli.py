import json
import math

import numpy as np
import pytest

from torusbvp import build_mesh
from torusbvp.cli import _fmt, _write_solution_csv, main


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


def test_invalid_geometry_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, BASE.replace("l = 2.0", "l = 1.0").replace("r = 1.0", "r = 2.0"))
    assert main(["solve-p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_missing_required_option(tmp_path):
    cfg = write_cfg(tmp_path, "[geometry]\nl = 2.0\nr = 1.0\n")
    assert main(["solve-p1", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


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


def test_mt_scan_deterministic_csv(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["mt-scan", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["mt-scan", "--config", cfg, "--out", str(out2)]) == 0
    assert csv_body(out1 / "mt_scan.csv") == csv_body(out2 / "mt_scan.csv")
    header = csv_body(out1 / "mt_scan.csv")[0]
    assert header == "alpha,grad_energy,log_integral,mean_term,ratio,C_hat,resolved_flag"


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
