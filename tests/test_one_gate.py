"""Every method decides the data once, in one gate, before it builds a level.

``solvers._admit`` is the only code in ``solvers.py`` that names
``InfeasibleError`` or ``ExistenceWindowWarning``, and each public
``solve_*`` calls it before its first assembly, equation record, level loop,
descent or factor.  The lint below parses the module and says where either
rule is broken; the tests after it check the gate's decisions on data with
and without a solution.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import torusbvp as tb
from torusbvp.cli import main

SOLVERS = Path(__file__).resolve().parent.parent / "src" / "torusbvp" / "solvers.py"
GATE = "_admit"
DECISIONS = {"InfeasibleError", "ExistenceWindowWarning"}
# calls that build a level or factor a matrix: the gate must come first
BUILDS = {"assemble", "_equation", "_solve_newton", "_solve_variational", "_factorize"}


def _called(node):
    return getattr(node.func, "id", getattr(node.func, "attr", None))


def gate_breaches(tree):
    """``(line, reason)`` of every decision outside the gate and every public solve that skips it."""
    found = []
    for scope in tree.body:
        if not isinstance(scope, ast.FunctionDef):
            continue
        if scope.name != GATE:
            found += [(node.lineno, "%s decided in %s" % (node.id, scope.name)) for node in ast.walk(scope)
                      if isinstance(node, ast.Name) and node.id in DECISIONS]
        if scope.name.startswith("solve_"):
            calls = sorted((node.lineno, node.col_offset, _called(node)) for node in ast.walk(scope)
                           if isinstance(node, ast.Call) and _called(node) in BUILDS | {GATE})
            if not calls or calls[0][2] != GATE:
                found.append((scope.lineno, "%s builds before %s" % (scope.name, GATE)))
    return sorted(found)


def test_one_gate_decides_the_data():
    assert gate_breaches(ast.parse(SOLVERS.read_text(), filename=str(SOLVERS))) == []


@pytest.mark.parametrize("source, flagged", [
    ("def _admit(mesh, p, prob):\n    raise InfeasibleError('no root')", False),
    ("def _admit(mesh, p, prob):\n    warnings.warn('R', ExistenceWindowWarning)", False),
    ("def _solve_variational(mesh, p, prob):\n    raise InfeasibleError('no root')", True),
    ("def solve_p1_variational(mesh, p, prob):\n    warnings.warn('gamma', ExistenceWindowWarning)\n"
     "    _admit(mesh, p, prob)", True),
    ("def solve_p2_newton(mesh, p, prob):\n    return _solve_newton(mesh, p, prob)", True),
    ("def solve_p2_monotone(mesh, p, prob):\n    ops = assemble(mesh, p)\n    _admit(mesh, p, prob)", True),
    ("def solve_p2_newton(mesh, p, prob):\n    _admit(mesh, p, prob)\n    return _solve_newton(mesh, p, prob)",
     False),
    ("def solve_p2_variational(mesh, p, prob):\n    _admit(mesh, p, prob)\n    ops = assemble(mesh, p)", False),
])
def test_lint_flags_decisions_outside_the_gate(source, flagged):
    assert bool(gate_breaches(ast.parse(source))) is flagged


def _no_root(mesh):
    """a = b = 0.5, f = g = 2 + t: every term of K(v) = sum(c) + sum(w e^v) is positive."""
    data = tb.DiskField.from_function(mesh, lambda t, s: 2.0 + t)
    return tb.ProblemP2(0.5, 0.5, data, data)


@pytest.mark.parametrize("n_rings", [8, 16, 64])
def test_newton_rejects_data_with_no_solution(params, splu_sizes, n_rings):
    """Before the gate Newton named these data a singular Jacobian or a stalled line search."""
    mesh = tb.build_mesh(n_rings)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tb.ExistenceWindowWarning)
        with pytest.raises(tb.InfeasibleError):
            tb.solve_p2_newton(mesh, params, _no_root(mesh))
    assert splu_sizes == []


def test_solve_p2_newton_on_data_with_no_solution_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[geometry]\nl = 2.0\nr = 1.0\n[mesh]\nn_rings = 16\n"
                   "[problem]\na = 0.5\nb = 0.5\nf = 2 + t\ng = 2 + t\n[solver]\nmethod = newton\n")
    assert main(["solve-p2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "opposite sign" in capsys.readouterr().err


def test_monotone_rejects_data_with_no_solution(params, mesh16):
    """a = b = -1, f = g = -1: before the gate the ordering checks named this a bad bracket."""
    minus = tb.DiskField.constant(mesh16, -1.0)
    zero = tb.DiskField.constant(mesh16, 0.0)
    with pytest.raises(tb.InfeasibleError):
        tb.solve_p2_monotone(mesh16, params, tb.ProblemP2(-1.0, -1.0, minus, minus), zero, zero)


def test_p1_newton_skips_the_row_sum_condition(params, mesh16):
    """gamma = -1, f = 1 has no Neumann solution, but the Dirichlet problem is solvable."""
    prob = tb.ProblemP1(-1.0, tb.DiskField.constant(mesh16, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = tb.solve_p1_newton(mesh16, params, prob)
    assert np.all(rep.field.values >= 0.0)  # -div grad v = e^v + 1 > 0


def test_p1_newton_warns_above_the_window(params, mesh16):
    """The window is a statement about the problem, not the method: Newton warns too."""
    window = 1.0 / (2.0 * tb.mu_best(params, "interior_dirichlet")) / params.volume()
    assert window == pytest.approx(8.0 * (params.l - params.r) / (params.l * params.r**2), rel=1e-15)
    prob = tb.ProblemP1(window + 1.0, tb.DiskField.constant(mesh16, 1.0))
    with pytest.warns(tb.ExistenceWindowWarning, match="existence window"):
        try:
            tb.solve_p1_newton(mesh16, params, prob, opts=tb.SolveOptions(max_iter=3))
        except tb.NonConvergence:
            pass


@pytest.mark.parametrize("g, bound", [(0.0, 8.0), (-0.1, 4.0)], ids=["interior_full", "boundary_trace"])
def test_p2_window_bound_follows_the_boundary_data(params, mesh16, g, bound):
    """R between the two bounds warns only when the boundary data are nonzero."""
    a = 0.5 * (4.0 + 8.0) * math.pi**2 * (params.l - params.r) / params.volume()
    f = tb.DiskField.constant(mesh16, -math.exp(-1.0))
    prob = tb.ProblemP2(a, 0.0, f, tb.DiskField.constant(mesh16, g))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tb.solve_p2_newton(mesh16, params, prob)
    warned = [w for w in caught if issubclass(w.category, tb.ExistenceWindowWarning)]
    assert len(warned) == (bound < 8.0)


def test_p1_variational_warns_in_the_window_of_the_problem_it_solves(params, mesh16):
    """gamma = 3, f = 1 at l = 2, r = 1: R = 118.4 lies between 8 pi^2 and 16 pi^2.

    The variational route solves over every node with natural boundary
    behavior, the ``interior_full`` problem, so it warns as its P2 form
    does; the Dirichlet problem of P1 Newton has the wider window.
    """
    prob = tb.ProblemP1(3.0, tb.DiskField.constant(mesh16, 1.0))
    assert 8.0 < prob.as_p2().R(params) / (math.pi**2 * (params.l - params.r)) < 16.0
    for solve, data in [(tb.solve_p1_variational, prob), (tb.solve_p2_variational, prob.as_p2()),
                        (tb.solve_p1_newton, prob)]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                solve(mesh16, params, data, opts=tb.SolveOptions(max_iter=3, max_descent_iter=3))
            except tb.NonConvergence:
                pass
        warned = [w for w in caught if issubclass(w.category, tb.ExistenceWindowWarning)
                  and "existence window" in str(w.message)]
        assert len(warned) == (solve is not tb.solve_p1_newton), solve.__name__
