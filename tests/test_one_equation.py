"""Both model problems are one discrete equation, stated in one place.

``ProblemP2.terms`` is the only product of the lumped masses with the
problem data: ``c = M a + M_b b`` and ``w = M f + M_b g`` of ``S v + c + w
e^v = 0``.  Newton, descent, monotone iteration and the
functionals read those two arrays, so they cannot drift apart.  The lint
flags a product of ``volume_mass`` or ``boundary_mass`` with ``.a``, ``.b``,
``.f.values`` or ``.g.values`` (a ``*`` or a two-argument sum such as
``weighted_sum``) anywhere else; names bound directly to either side count
as that side.  A second lint keeps ``solvers.py``'s reads of the raw fields
``.f.values`` and ``.g.values`` to the three places that need data outside
the record: the gate's boundary trace, the level walk's data restriction
and the constant bracket.  A third keeps its reads of the masses to
``_equation``, which weighs each record's residual once (``Record.W``).  A
spy then counts the terms each public solve builds on its finest mesh: the
gate's record, which the solve and its report read, and the energy's;
another pins each route's residual weights and the residual norms read
from them.  The last tests check that the constraint value is the sum of
the equation's rows.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import torusbvp as tb
from torusbvp import solvers

SRC = Path(__file__).resolve().parent.parent / "src" / "torusbvp"
MODULES = sorted(SRC.glob("*.py"))
MASSES = {"volume_mass", "boundary_mass"}
EXEMPT = ("functionals.py", "ProblemP2.terms")


def _is_mass(node):
    return isinstance(node, ast.Attribute) and node.attr in MASSES


def _is_data(node):
    return isinstance(node, ast.Attribute) and (node.attr in ("a", "b") or (
        node.attr == "values" and isinstance(node.value, ast.Attribute) and node.value.attr in ("f", "g")))


def _scopes(tree):
    """``(name, node)`` of every top-level statement, methods as ``Class.method``."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                yield "%s.%s" % (top.name, getattr(item, "name", "")), item
        else:
            yield getattr(top, "name", None), top


def _aliases(scope):
    """Names bound directly (``m = ops.volume_mass``, ``f, g = ...``) to a mass or to data."""
    mass, data = set(), set()
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                while isinstance(value, ast.Subscript):
                    value = value.value
                if isinstance(name, ast.Name):
                    if _is_mass(value):
                        mass.add(name.id)
                    elif _is_data(value):
                        data.add(name.id)
    return mass, data


def mass_data_products(tree, module):
    """``(line, source)`` of every product of a mass with problem data outside ``EXEMPT``."""
    found = []
    for name, scope in _scopes(tree):
        if (module, name) == EXEMPT:
            continue
        mass, data = _aliases(scope)

        def mentions(node, pred, names):
            return any(pred(n) or (isinstance(n, ast.Name) and n.id in names) for n in ast.walk(node))

        def pairs_up(x, y):
            return (mentions(x, _is_mass, mass) and mentions(y, _is_data, data)) or (
                mentions(y, _is_mass, mass) and mentions(x, _is_data, data))

        for node in ast.walk(scope):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and pairs_up(node.left, node.right):
                found.append(node)
            elif isinstance(node, ast.Call) and len(node.args) == 2 and pairs_up(*node.args):
                found.append(node)
    return sorted((node.lineno, ast.unparse(node)) for node in found)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_masses_meet_the_data_only_in_terms(path):
    assert mass_data_products(ast.parse(path.read_text(), filename=str(path)), path.name) == []


@pytest.mark.parametrize("module, source, flagged", [
    ("functionals.py", "class ProblemP2:\n    def terms(self, ops):\n"
                       "        return ops.volume_mass * self.a, ops.boundary_mass * self.g.values", False),
    ("functionals.py", "class ProblemP2:\n    def R(self, ops):\n        return ops.volume_mass * self.a", True),
    ("solvers.py", "def f(ops, prob):\n    return ops.volume_mass * (prob.a + prob.f.values * ev)", True),
    ("solvers.py", "def f(ops, prob):\n    return prob.b * weighted_sum(ops.boundary_mass, v)", True),
    ("solvers.py", "def f(ops, prob):\n    return weighted_sum(ops.volume_mass, prob.f.values)", True),
    ("solvers.py", "def f(ops, prob):\n    m, g = ops.volume_mass[new], prob.g.values\n    return m * g", True),
    ("solvers.py", "def f(ops, prob):\n    m = ops.boundary_mass\n    return prob.a * m", True),
    ("cli.py", "x = ops.volume_mass * prob.f.values", True),
    ("solvers.py", "def f(ops, prob):\n    c, w = prob.terms(ops)\n    return c + w * ev", False),
    ("solvers.py", "def f(ops, prob):\n    m = ops.volume_mass\n    return w_shift * m + weighted_sum(m, v)", False),
    ("solvers.py", "def f(ops, prob):\n    return residual / (ops.volume_mass + ops.boundary_mass)", False),
])
def test_lint_flags_mass_data_products(module, source, flagged):
    assert bool(mass_data_products(ast.parse(source), module)) is flagged


# the scopes of solvers.py that read the raw data fields: ``_admit`` picks
# the window mode by g's boundary trace, ``_solve_newton`` restricts the data
# to each level, ``find_constant_bracket`` reads the nodewise data signs
RAW_DATA_READERS = {"_admit", "_solve_newton", "find_constant_bracket"}


def raw_data_readers(tree):
    """Names of the top-level scopes that read ``.f.values`` or ``.g.values``."""
    return {name for name, scope in _scopes(tree)
            if any(_is_data(node) and node.attr == "values" for node in ast.walk(scope))}


def test_solvers_read_the_raw_data_only_to_gate_restrict_and_bracket():
    assert raw_data_readers(ast.parse((SRC / "solvers.py").read_text())) <= RAW_DATA_READERS


@pytest.mark.parametrize("source, readers", [
    ("def solve_p2_monotone(prob):\n    f, g = prob.f.values, prob.g.values", {"solve_p2_monotone"}),
    ("def _admit(mesh, prob):\n    return prob.g.values[mesh.boundary_nodes]", {"_admit"}),
    ("class A:\n    def m(self, prob):\n        return prob.f.values", {"A.m"}),
    ("def f(ops, prob):\n    c, w = prob.terms(ops)\n    return abs(c) + abs(w)", set()),
    ("def f(field):\n    return field.values", set()),
])
def test_lint_finds_raw_data_readers(source, readers):
    assert raw_data_readers(ast.parse(source)) == readers


# the one scope of solvers.py that reads the masses: ``_equation`` weighs
# every record's residual, ``M`` for P1 and ``M + M_b`` for P2
MASS_READERS = {"_equation"}


def mass_readers(tree):
    """Names of the top-level scopes that read ``volume_mass`` or ``boundary_mass``."""
    return {name for name, scope in _scopes(tree) if any(_is_mass(node) for node in ast.walk(scope))}


def test_solvers_read_the_masses_only_to_build_the_record():
    assert mass_readers(ast.parse((SRC / "solvers.py").read_text())) <= MASS_READERS


@pytest.mark.parametrize("source, readers", [
    ("def p2_residual_norm(ops):\n    return ops.volume_mass + ops.boundary_mass", {"p2_residual_norm"}),
    ("def _solve_newton(ops, k):\n    weights = ops.volume_mass[:k]", {"_solve_newton"}),
    ("class A:\n    def m(self, ops):\n        return ops.boundary_mass", {"A.m"}),
    ("def _newton_loop(eq):\n    return eq.W", set()),
])
def test_lint_finds_mass_readers(source, readers):
    assert mass_readers(ast.parse(source)) == readers


def _p2(a, f, g):
    return lambda mesh: tb.ProblemP2(a, a, tb.DiskField.from_function(mesh, f), tb.DiskField.from_function(mesh, g))


def _p1(gamma, f):
    return lambda mesh: tb.ProblemP1(gamma, tb.DiskField.from_function(mesh, f))


def _monotone(mesh, p, prob):
    return tb.solve_p2_monotone(mesh, p, prob, tb.DiskField.constant(mesh, -math.log1p(0.5)),
                                tb.DiskField.constant(mesh, 0.0))


def _benchmark_data(t, s):
    return -0.5 * math.exp(-1.0) * (1.0 + 0.1 * t)


def _readme_data(t, s):
    return t + 0.55


def _zero(t, s):
    return 0.0 * t


PUBLIC_SOLVES = {  # name: (solver, problem on a mesh)
    "p1_newton": (tb.solve_p1_newton, _p1(1.5, lambda t, s: 1.0 + 0.2 * t)),
    "p1_variational": (tb.solve_p1_variational, _p1(1.5, lambda t, s: 1.0 + 0.2 * t)),
    "p1_variational_gamma0": (tb.solve_p1_variational, _p1(0.0, lambda t, s: -(t + 0.55))),
    "p2_newton": (tb.solve_p2_newton, _p2(0.5, _benchmark_data, _benchmark_data)),
    "p2_newton_zero_linear": (tb.solve_p2_newton, _p2(0.0, _readme_data, _zero)),
    "p2_variational_zero_linear": (tb.solve_p2_variational, _p2(0.0, _readme_data, _zero)),
    "p2_monotone": (_monotone, _p2(-1.0, lambda t, s: 1.0 + 0.5 * t * t, lambda t, s: 1.0 + 0.0 * t)),
}


@pytest.mark.filterwarnings("ignore::torusbvp.errors.ExistenceWindowWarning")
@pytest.mark.parametrize("route", sorted(PUBLIC_SOLVES))
def test_a_public_solve_builds_its_finest_terms_twice(monkeypatch, params, mesh32, route):
    """At most two ``ProblemP2.terms`` on the finest mesh's operators: the gate's record and the energy's.

    The gate (``_admit``) builds the one record that Newton's finest level,
    the monotone route and the report's constraint read;
    ``functional_I_p1`` or ``functional_I_p2`` builds the terms once more
    for the energy.  Coarse levels build their own terms, on their own
    operators, and are not counted.
    """
    solve, problem = PUBLIC_SOLVES[route]
    prob, finest = problem(mesh32), tb.assemble(mesh32, params)
    solve(mesh32, params, prob)  # warm: the level hierarchy built
    real_terms, calls = tb.ProblemP2.terms, []

    def spy(self, ops):
        calls.append(ops is finest)
        return real_terms(self, ops)

    monkeypatch.setattr(tb.ProblemP2, "terms", spy)
    solve(mesh32, params, prob)
    assert 1 <= sum(calls) <= 2


@pytest.mark.filterwarnings("ignore::torusbvp.errors.ExistenceWindowWarning")
@pytest.mark.parametrize("n_rings", [8, 16, 33])
@pytest.mark.parametrize("route", sorted(PUBLIC_SOLVES))
def test_each_route_weighs_its_residual_by_its_own_masses(monkeypatch, params, route, n_rings):
    """The gate's ``Record.W`` is ``M + M_b`` for P2, ``M`` for P1 over every node, ``M[:n_interior]`` for P1 Newton.

    Bit for bit, as are the residual norms read from it: ``p1_residual_norm``
    and ``p2_residual_norm`` against their formulas from the masses.
    """
    solve, problem = PUBLIC_SOLVES[route]
    mesh = tb.build_mesh(n_rings)
    prob, ops = problem(mesh), tb.assemble(mesh, params)
    real_admit, records = solvers._admit, []

    def spy(*args, **kwargs):
        records.append(real_admit(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(solvers, "_admit", spy)
    solve(mesh, params, prob)
    eq, = records
    p1 = isinstance(prob, tb.ProblemP1)
    if not p1:
        masses = ops.volume_mass + ops.boundary_mass
    else:
        masses = ops.volume_mass[:mesh.n_interior] if route == "p1_newton" else ops.volume_mass
    assert eq.W.dtype == masses.dtype and eq.W.tobytes() == masses.tobytes()
    v = tb.DiskField(mesh, np.random.default_rng(n_rings).normal(size=mesh.n_nodes))
    if p1:
        for natural in (False, True):
            core = solvers._equation(mesh, params, prob.as_p2(), dirichlet=not natural)
            norm = solvers._weighted_norm(solvers._residual(core, v.values), ops.volume_mass[:core.k])
            assert tb.p1_residual_norm(mesh, params, prob, v, natural=natural) == norm
    else:
        norm = solvers._weighted_norm(solvers._residual(solvers._equation(mesh, params, prob), v.values), masses)
        assert tb.p2_residual_norm(mesh, params, prob, v) == norm


def _random_problems(rng, mesh):
    """A P2 problem and a P1 problem as ``as_p2``, with random data on ``mesh``."""
    t, s = mesh.nodes[:, 0], mesh.nodes[:, 1]
    c = rng.normal(size=5)
    f = tb.DiskField(mesh, c[0] + c[1] * t + c[2] * s * s)
    g = tb.DiskField(mesh, c[3] + c[4] * t)
    a, b, gamma = rng.normal(size=3)
    return tb.ProblemP2(a, b, f, g), tb.ProblemP1(gamma, f).as_p2()


@pytest.mark.parametrize("n_rings", [8, 16])
def test_constraint_is_the_sum_of_the_residual_rows(params, n_rings):
    """``K(v) = sum(c) + sum(w e^v)`` is ``1' F(v)``, as ``1' S = 0``: equal to roundoff."""
    mesh = tb.build_mesh(n_rings)
    ops = tb.assemble(mesh, params)
    rng = np.random.default_rng(n_rings)
    for _ in range(20):
        v = tb.DiskField(mesh, rng.normal(size=mesh.n_nodes))
        for prob in _random_problems(rng, mesh):
            eq = solvers._equation(mesh, params, prob)
            rows = solvers._residual(eq, v.values)
            S, c, w = eq.S, eq.c, eq.w
            scale = np.sum(abs(S) @ np.abs(v.values)) + np.sum(np.abs(c)) + np.sum(np.abs(w * np.exp(v.values)))
            assert abs(tb.constraint_K(mesh, params, v, prob) - np.sum(rows)) <= 1e-13 * scale



@pytest.mark.parametrize("l, r", [(2.0, 1.0), (3.0, 0.5), (1.2, 1.0)])
@pytest.mark.parametrize("n_rings", [8, 32, 128])
def test_zero_field_residual_is_c_plus_w(l, r, n_rings):
    """Newton's reference residual ``F(0)`` is ``c + w`` bit for bit, signed zeros included, on every record's unknowns.

    A Dirichlet record's unknowns are the interior nodes, the leading
    ``k``; its pinned boundary rows read +0.0.
    """
    params, mesh = tb.TorusParams(l, r), tb.build_mesh(n_rings)
    f = tb.DiskField.from_function(mesh, lambda t, s: t + 0.55)
    zero = tb.DiskField.constant(mesh, 0.0)
    records = [(tb.ProblemP1(1.5, tb.DiskField.from_function(mesh, lambda t, s: 1.0 + 0.2 * t)).as_p2(), True),
               (tb.ProblemP1(0.0, f).as_p2(), False),
               (tb.ProblemP2(0.5, -0.5, f, tb.DiskField.from_function(mesh, lambda t, s: s - 0.1)), False),
               (tb.ProblemP2(0.0, 0.0, f, zero), False)]
    for prob, dirichlet in records:
        eq = solvers._equation(mesh, params, prob, dirichlet)
        k = eq.k
        assert k == (mesh.n_interior if dirichlet else mesh.n_nodes)
        F0 = solvers._residual(eq, np.zeros(mesh.n_nodes))
        assert F0[:k].tobytes() == (eq.c + eq.w)[:k].tobytes()
        assert F0[k:].tobytes() == np.zeros(mesh.n_nodes - k).tobytes()
