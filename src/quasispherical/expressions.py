"""Tiny closed expression language for prescribed fields on the grid.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Variables: theta (colatitude, [0, pi]) and phi (azimuth, [0, 2 pi)).
Functions: sin, cos, exp, sqrt.  Exponentiation binds tighter than unary
minus, so -2^2 = -4.

Parsing reports the byte offset of any failure; unknown names raise
UnknownIdentifierError rather than silently evaluating.  The parser
records the variables it accepts.  The CLI's outputs embed the config,
expression text included, as given.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExpressionSyntaxError,
    NonPositiveOnGridError,
    UnknownIdentifierError,
)

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
}
_VARIABLES = ("theta", "phi")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise ExpressionSyntaxError(
                f"unexpected character {text[offset]!r}", offset
            )
        kind = match.lastgroup
        value = match.group(kind)
        tokens.append((kind, value, match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.variables: set = set()

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected '{op}'", offset)
        self.advance()

    def parse(self):
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing input {value!r}", offset)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = ("bin", value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = ("bin", value, node, self.factor())
            else:
                return node

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return ("bin", "^", base, self.factor())
        return base

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return ("num", float(value))
        if kind == "ident":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in _FUNCTIONS:
                    raise UnknownIdentifierError(value, offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return ("call", value, arg)
            if value not in _VARIABLES:
                raise UnknownIdentifierError(value, offset)
            self.variables.add(value)
            return ("var", value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ExpressionSyntaxError("unexpected end of expression", offset)
        raise ExpressionSyntaxError(f"unexpected token {value!r}", offset)


def _evaluate(node, env: dict) -> np.ndarray:
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return env[node[1]]
    if tag == "neg":
        return -_evaluate(node[1], env)
    if tag == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], env))
    if tag == "bin":
        _, op, left, right = node
        a = _evaluate(left, env)
        b = _evaluate(right, env)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        if op == "^":
            return np.power(a, b)
    raise AssertionError(f"corrupt node {node!r}")


@dataclass(frozen=True)
class HExpression:
    """Parsed expression in theta (and optionally phi); variables holds the
    names it uses."""

    source: str
    ast: tuple
    variables: frozenset

    @classmethod
    def parse(cls, text: str) -> "HExpression":
        parser = _Parser(text)
        ast = parser.parse()
        return cls(source=text, ast=ast, variables=frozenset(parser.variables))

    def evaluate(self, theta, phi=None) -> np.ndarray:
        env = {"theta": np.asarray(theta, dtype=float)}
        if phi is not None:
            env["phi"] = np.asarray(phi, dtype=float)
        elif "phi" in self.variables:
            raise ValueError("expression uses phi but no phi values were given")
        return np.asarray(_evaluate(self.ast, env), dtype=float)

    def evaluate_on_grid(self, surface) -> np.ndarray:
        """Node field: (n_theta,) for theta-only expressions, else
        (n_theta, n_phi)."""
        theta = surface.theta
        if "phi" in self.variables:
            phi = np.arange(surface.n_phi) * surface.d_phi
            values = self.evaluate(theta[:, None], phi[None, :])
            return np.broadcast_to(values, (surface.n_theta, surface.n_phi)).copy()
        values = self.evaluate(theta)
        return np.broadcast_to(values, theta.shape).copy()

    def evaluate_positive_on_grid(self, surface) -> np.ndarray:
        """Like evaluate_on_grid, but rejects non-positive or non-finite
        values with the offending node location."""
        values = self.evaluate_on_grid(surface)
        bad = ~np.isfinite(values) | (values <= 0.0)
        if np.any(bad):
            flat = int(np.argmax(bad))
            if values.ndim == 2:
                j, k = np.unravel_index(flat, values.shape)
                theta = float(surface.theta[j])
                phi = float(k * surface.d_phi)
            else:
                j, k = flat, None
                theta = float(surface.theta[j])
                phi = None
            value = float(values[flat] if values.ndim == 1 else values[j, k])
            where = f"theta={theta:.6f}" + ("" if phi is None else f", phi={phi:.6f}")
            raise NonPositiveOnGridError(
                f"expression {self.source!r} is not positive at {where} "
                f"(value {value:.6g})",
                theta=theta,
                phi=phi,
                value=value,
            )
        return values
