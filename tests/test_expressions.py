import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusbvp as tb
from torusbvp.expressions import compile_expression


@pytest.mark.parametrize("text,point,expected", [
    ("1", (0.2, 0.3), 1.0),
    ("t + s", (0.2, 0.3), 0.5),
    ("2*t - s/2", (0.4, 0.2), 0.7),
    ("t^2 + s^2", (0.3, 0.4), 0.25),
    ("t**2", (0.5, 0.0), 0.25),
    ("-t", (0.25, 0.0), -0.25),
    ("exp(0)", (0.0, 0.0), 1.0),
    ("ln(e)", (0.0, 0.0), 1.0),
    ("sin(pi/2)", (0.0, 0.0), 1.0),
    ("cos(0) + 2", (0.0, 0.0), 3.0),
    ("2^3^1", (0.0, 0.0), 8.0),
    ("(t + 1)*(s - 1)", (1.0, 0.0), -2.0),
    ("exp(t)*cos(s)", (0.0, 0.0), 1.0),
    ("-t^2", (0.5, 0.0), -0.25),
    ("-2^2", (0.0, 0.0), -4.0),
    ("t^-s^2", (2.0, 1.0), 0.5),
    ("2^-1", (0.0, 0.0), 0.5),
    ("1 +\n t", (0.5, 0.0), 1.5),
])
def test_expression_values(text, point, expected):
    fn = compile_expression(text)
    assert fn(*point) == pytest.approx(expected, rel=1e-14)


def test_vectorized_evaluation():
    fn = compile_expression("t*s + 1")
    t = np.array([0.0, 1.0, 2.0])
    s = np.array([1.0, 1.0, 1.0])
    np.testing.assert_allclose(fn(t, s), [1.0, 2.0, 3.0])


def test_precedence():
    fn = compile_expression("1 + 2*3^2")
    assert fn(0.0, 0.0) == 19.0


@pytest.mark.parametrize("text", ["t +", "(t", "foo(t)", "t $ s", "x + 1", "exp t", "0x10", "1_0", "1j", "True",
                                  "t.real", "+t", "exp(t, s)", "t if s else 1", "", "t # c"])
def test_parse_errors(text):
    with pytest.raises(tb.ConfigError):
        compile_expression(text)


def test_no_module_calls_eval_or_exec():
    """Expressions are walked node by node; nothing in the package hands text to Python to run."""
    src = Path(tb.__file__).parent
    calls = [(path.name, node.func.id) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("eval", "exec", "compile")]
    assert calls == []


def test_division_yields_inf_not_crash():
    fn = compile_expression("1/t")
    out = fn(np.array([0.0, 2.0]), np.array([0.0, 0.0]))
    assert math.isinf(out[0]) and out[1] == 0.5


@pytest.mark.parametrize("text", ["1/0", "0^(-1)", "10^400", "(-8)^(1/3)", "(-8)^(1/3) + 0*t"])
def test_constant_subexpressions_follow_float64(text):
    """Constants are float64 as t and s are: inf or nan at every point, with no exception or warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = compile_expression(text)(np.array([0.0, 0.5]), np.array([0.0, -0.5]))
    assert out.dtype == np.float64 and not np.any(np.isfinite(out))


T = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 1e-300, 0.3])
S = np.array([0.0, 0.0, -1.0, 0.25, -0.5, 0.9, 2.0, -1e-300])
_LEAVES = st.one_of(
    st.sampled_from([("t", lambda t, s: t), ("s", lambda t, s: s),
                     ("pi", lambda t, s: np.float64(math.pi)), ("e", lambda t, s: np.float64(math.e))]),
    st.floats(min_value=0.0, max_value=1e300).map(lambda c: (repr(c), lambda t, s: np.float64(c))))
_BINARY = [("+", np.add), ("-", np.subtract), ("*", np.multiply), ("/", np.divide), ("^", np.power),
           ("**", np.power)]
_CALLS = [("exp", np.exp), ("ln", np.log), ("sin", np.sin), ("cos", np.cos)]


def _binary(parts):
    (left, lf), (op, uf), (right, rf) = parts
    return "(%s %s %s)" % (left, op, right), lambda t, s: uf(lf(t, s), rf(t, s))


def _negate(part):
    return "(-%s)" % part[0], lambda t, s: np.negative(part[1](t, s))


def _call(parts):
    (name, uf), (arg, af) = parts
    return "%s(%s)" % (name, arg), lambda t, s: uf(af(t, s))


_EXPRESSIONS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(_BINARY), inner).map(_binary),
    inner.map(_negate),
    st.tuples(st.sampled_from(_CALLS), inner).map(_call)), max_leaves=10)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_EXPRESSIONS)
def test_compiled_expression_is_the_float64_numpy_evaluation(case):
    """Bit for bit, signed zeros, inf and nan included, against the numpy operations applied directly."""
    text, reference = case
    with np.errstate(all="ignore"):
        expected = np.broadcast_to(reference(T, S), T.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = compile_expression(text)(T, S)
    assert np.array_equal(out.view(np.int64), expected.view(np.int64)), text
