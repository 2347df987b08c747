"""Analytic-expression grammar for coefficient definitions in (t, s).

An expression is Python arithmetic over a closed vocabulary, read by
Python's own parser (``ast``) and never evaluated by it::

    numbers   decimal literals: 2, 0.5, .5, 1e-3 (no 0x10, 1_0, 1j or True)
    names     t, s, pi, e
    calls     exp(x), ln(x), sin(x), cos(x), one argument each
    operators + - * / and ^ (an alias of **), unary minus, parentheses

Precedence is Python's: ``^`` binds tighter than unary minus, so ``-t^2``
is ``-(t^2)``, ``-2^2`` is -4 and ``t^-s^2`` is ``t^(-(s^2))``; ``^`` is
right-associative.  Only letters, digits, ``. + - * / ^ ( )`` and
whitespace may appear; line breaks count as spaces.  Anything else, or an
expression nested too deeply for the parser, is a ``ConfigError``.

Each node becomes a function of ``(t, s)``.  Constants are float64, as
``t`` and ``s`` are, so every operation follows float64 arithmetic: a
division by zero, an overflow or a fractional power of a negative base
gives inf or nan, never an exception or a complex value.

Coefficients written in the disk coordinates are rotation-invariant by
construction, which is exactly the admissible data class.
"""

from __future__ import annotations

import ast
import math
import operator
import re

import numpy as np

from .errors import ConfigError

_ALLOWED = re.compile(r"[A-Za-z0-9.+\-*/^()\s]*")
_FUNCS = {"exp": np.exp, "ln": np.log, "sin": np.sin, "cos": np.cos}
_NAMES = {"t": lambda t, s: t, "s": lambda t, s: s,
          "pi": lambda t, s: np.float64(math.pi), "e": lambda t, s: np.float64(math.e)}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def excerpt(text: str) -> str:
    """``repr(text)`` for a message; past 60 characters it is cut there and followed by the text's length."""
    quoted = repr(text)
    return quoted if len(quoted) <= 60 else "%s... (%d characters)" % (quoted[:60], len(text))


def _walk(node, source: str):
    """The ``(t, s)`` function of one node parsed from ``source``; ValueError if it is outside the grammar."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        fn, left, right = _BINARY[type(node.op)], _walk(node.left, source), _walk(node.right, source)
        return lambda t, s: fn(left(t, s), right(t, s))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        arg = _walk(node.operand, source)
        return lambda t, s: -arg(t, s)
    if isinstance(node, ast.Name) and node.id in _NAMES:
        return _NAMES[node.id]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _FUNCS
            and len(node.args) == 1 and not node.keywords):
        func, arg = _FUNCS[node.func.id], _walk(node.args[0], source)
        return lambda t, s: func(arg(t, s))
    if isinstance(node, ast.Constant):
        # the literal's text, so 1e400 and 400-digit integers are inf and 0x10, 1j and True are refused
        value = np.float64(float(ast.get_source_segment(source, node)))
        return lambda t, s: value
    raise ValueError("unsupported %s" % excerpt(ast.get_source_segment(source, node)))


def compile_expression(text: str):
    """Parse an expression in (t, s) and return a vectorized float64 evaluator."""
    text = str(text)
    if not _ALLOWED.fullmatch(text):
        raise ConfigError("expression %s may use only letters, digits, whitespace and . + - * / ^ ( )" % excerpt(text))
    source = " ".join(text.split()).replace("^", "**")
    too_deep = "expression %s is nested too deeply" % excerpt(text)
    try:
        tree = _walk(ast.parse(source, "expression", "eval").body, source)
    except (SyntaxError, ValueError) as exc:
        raise ConfigError("cannot parse expression %s: %s" % (excerpt(text), exc)) from exc
    except (RecursionError, MemoryError) as exc:  # CPython's parser reports a too-deep tree as MemoryError
        raise ConfigError(too_deep) from exc

    def fn(t, s):
        with np.errstate(all="ignore"):
            try:
                out = tree(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
            except RecursionError as exc:
                raise ConfigError(too_deep) from exc
        return np.broadcast_to(out, np.broadcast(t, s).shape).copy()

    return fn
