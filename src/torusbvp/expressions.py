"""Tiny analytic-expression grammar for coefficient definitions in (t, s).

Grammar (usual precedence, ``^`` right-associative)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := unary ('^' factor)?          # '**' is accepted as an alias
    unary  := '-' unary | atom
    atom   := NUMBER | 'pi' | 'e' | 't' | 's'
            | ('exp' | 'ln' | 'sin' | 'cos') '(' expr ')'
            | '(' expr ')'

Each rule parses to a function of ``(t, s)``.  Constants are float64, as
``t`` and ``s`` are, so every operation follows float64 arithmetic: a
division by zero, an overflow or a fractional power of a negative base
gives inf or nan, never an exception or a complex value.

Coefficients written in the disk coordinates are rotation-invariant by
construction, which is exactly the admissible data class.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from .errors import ConfigError

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()]))")

_FUNCS = {"exp": np.exp, "ln": np.log, "sin": np.sin, "cos": np.cos}
_CONSTS = {"pi": math.pi, "e": math.e}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ConfigError("cannot tokenize expression at %r" % text[pos:pos + 12])
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", float(num)))
        elif name is not None:
            tokens.append(("name", name))
        else:
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


def _binary(op, left, right):
    fn = _BINARY[op]
    return lambda t, s: fn(left(t, s), right(t, s))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ConfigError("expected %r in expression %r" % (op, self.text))

    def parse(self):
        fn = self.expr()
        if self.peek()[0] != "end":
            raise ConfigError("trailing tokens in expression %r" % self.text)
        return fn

    def expr(self):
        fn = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            fn = _binary(self.take()[1], fn, self.term())
        return fn

    def term(self):
        fn = self.factor()
        while self.peek() in (("op", "*"), ("op", "/")):
            fn = _binary(self.take()[1], fn, self.factor())
        return fn

    def factor(self):
        fn = self.unary()
        if self.peek() == ("op", "^"):
            self.take()
            fn = _binary("^", fn, self.factor())
        return fn

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            arg = self.unary()
            return lambda t, s: -arg(t, s)
        return self.atom()

    def atom(self):
        kind, val = self.take()
        if kind == "num" or (kind == "name" and val in _CONSTS):
            const = np.float64(val if kind == "num" else _CONSTS[val])
            return lambda t, s: const
        if kind == "name":
            if val == "t":
                return lambda t, s: t
            if val == "s":
                return lambda t, s: s
            if val in _FUNCS:
                self.expect_op("(")
                arg, func = self.expr(), _FUNCS[val]
                self.expect_op(")")
                return lambda t, s: func(arg(t, s))
            raise ConfigError("unknown name %r in expression %r" % (val, self.text))
        if kind == "op" and val == "(":
            fn = self.expr()
            self.expect_op(")")
            return fn
        raise ConfigError("unexpected token %r in expression %r" % (val, self.text))


def compile_expression(text: str):
    """Parse an expression in (t, s) and return a vectorized float64 evaluator."""
    tree = _Parser(str(text)).parse()

    def fn(t, s):
        with np.errstate(all="ignore"):
            out = tree(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        return np.broadcast_to(out, np.broadcast(t, s).shape).copy()

    return fn
