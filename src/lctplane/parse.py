"""Recursive-descent parser for the polynomial text grammar.

Grammar (whitespace insignificant)::

    expr     := ('+'|'-')? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' exponent)?
    base     := variable | rational | '(' expr ')'
    rational := int ('/' posint)?

Division is only part of a rational literal; ``1/x`` and negative
exponents are rejected as :class:`~lctplane.errors.NonPolynomial`.
Implicit multiplication by juxtaposition is a syntax error.

A power whose exponent, or whose degree once expanded, exceeds
``MAX_EXPONENT`` is rejected with
:class:`~lctplane.errors.ExponentTooLarge` (a precondition error, CLI
exit 3) before it is expanded: later stages allocate lists as long as the
largest exponent.  Likewise a power or product whose result could have
more than ``MAX_TERMS`` terms is rejected with
:class:`~lctplane.errors.TooManyTerms` before it is expanded; the bound
is the number of monomial products, ``C(n + t - 1, t - 1)`` for the
n-th power of t terms, or the box of the result's per-variable degrees,
whichever is smaller.

The module is variable-set generic (the CLI parses projective input in
x, y, z); ``parse_poly`` is the bivariate entry point returning a
:class:`~lctplane.poly.BPoly`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ExponentTooLarge, NonPolynomial, ParseError, TooManyTerms
from .poly import BPoly

__all__ = ["MAX_EXPONENT", "MAX_TERMS", "parse_poly", "parse_terms", "parse_rational"]

MAX_EXPONENT = 1000
MAX_TERMS = 10_000

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
        number, name, op = m.groups()
        if number is not None:
            tokens.append(("int", int(number), m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        else:
            tokens.append(("op", op, m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Parses into n-variable term dicts: {(e_1, ..., e_n): Fraction}."""

    def __init__(self, text, variables):
        self.text = text
        self.variables = tuple(variables)
        self.tokens = _tokenize(text)
        self.idx = 0

    # token helpers

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    # term-dict arithmetic (n variables, separate from the bivariate kernel)

    def _zero(self):
        return {}

    def _const(self, c):
        c = Fraction(c)
        return {(0,) * len(self.variables): c} if c else {}

    def _add(self, a, b):
        out = dict(a)
        for exp, c in b.items():
            acc = out.get(exp, Fraction(0)) + c
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return out

    def _mul(self, a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(u + v for u, v in zip(ea, eb))
                acc = out.get(exp, Fraction(0)) + ca * cb
                if acc:
                    out[exp] = acc
                else:
                    out.pop(exp, None)
        return out

    def _pow(self, a, n):
        if len(a) == 1:  # a monomial: scale its exponents, no products
            ((exp, c),) = a.items()
            return {tuple(e * n for e in exp): c**n}
        # Repeated multiplication by the short base: squaring a dense
        # bivariate power costs more than the n - 1 products it saves.
        out = self._const(1)
        for _ in range(n):
            out = self._mul(out, a)
        return out

    # grammar rules

    def parse(self):
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return result

    def expr(self):
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            negate = value == "-"
            self.advance()
        total = self.term()
        if negate:
            total = self._mul(total, self._const(-1))
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                if value == "-":
                    rhs = self._mul(rhs, self._const(-1))
                total = self._add(total, rhs)
            else:
                return total

    def term(self):
        total = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                rhs = self.factor()
                _check_terms(
                    "product",
                    len(total) * len(rhs),
                    map(sum, zip(_max_exponents(total), _max_exponents(rhs))),
                    pos,
                )
                total = self._mul(total, rhs)
            elif kind == "op" and value == "/":
                raise NonPolynomial(
                    "division is only allowed inside rational literals", pos
                )
            elif kind in ("int", "name") or (kind == "op" and value == "("):
                raise ParseError(
                    "implicit multiplication by juxtaposition is not allowed", pos
                )
            else:
                return total

    def factor(self):
        base = self.base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            n = self.exponent()
            degree = max((sum(exp) for exp in base), default=0)
            if max(n, n * degree) > MAX_EXPONENT:
                raise ExponentTooLarge(
                    f"power exceeds the exponent limit {MAX_EXPONENT} "
                    f"(at position {pos})"
                )
            if len(base) > 1:
                _check_terms(
                    "power",
                    math.comb(n + len(base) - 1, n),
                    (n * d for d in _max_exponents(base)),
                    pos,
                )
            base = self._pow(base, n)
        return base

    def exponent(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            return value
        if kind == "op" and value == "(":
            # only to diagnose x^(-1) as NonPolynomial, per the grammar
            self.advance()
            sign = 1
            kind, value, pos2 = self.peek()
            if kind == "op" and value in "+-":
                sign = -1 if value == "-" else 1
                self.advance()
            kind, value, pos3 = self.peek()
            if kind != "int":
                raise ParseError("expected integer exponent", pos3)
            self.advance()
            self.expect_op(")")
            if sign < 0:
                raise NonPolynomial("negative exponent", pos2)
            return value
        raise ParseError("expected nonnegative integer exponent", pos)

    def base(self):
        kind, value, pos = self.peek()
        if kind == "name":
            if value not in self.variables:
                raise ParseError(
                    f"unknown variable {value!r}, expected one of "
                    f"{'/'.join(self.variables)}",
                    pos,
                )
            self.advance()
            exp = tuple(
                1 if v == value else 0 for v in self.variables
            )
            return {exp: Fraction(1)}
        if kind == "int":
            self.advance()
            numerator = value
            kind, value, pos2 = self.peek()
            if kind == "op" and value == "/":
                self.advance()
                kind, value, pos3 = self.peek()
                if kind == "name":
                    raise NonPolynomial("division by a variable", pos3)
                if kind != "int":
                    raise ParseError("expected positive integer denominator", pos3)
                if value == 0:
                    raise ParseError("zero denominator", pos3)
                self.advance()
                return self._const(Fraction(numerator, value))
            return self._const(numerator)
        if kind == "op" and value == "(":
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected variable, rational or parenthesized expression", pos)


def _max_exponents(terms):
    """Per-variable degrees of a nonzero n-variable term dict."""
    return map(max, zip(*terms))


def _check_terms(what, products, degrees, pos):
    """Refuse a result that neither its number of monomial ``products`` nor
    the box of its per-variable ``degrees`` bounds to ``MAX_TERMS`` terms."""
    if products > MAX_TERMS and math.prod(d + 1 for d in degrees) > MAX_TERMS:
        raise TooManyTerms(f"{what} exceeds the term limit {MAX_TERMS} (at position {pos})")


def parse_terms(text, variables):
    """Parse ``text`` over the given variable names into an n-var term dict."""
    return _Parser(text, variables).parse()


def parse_poly(text):
    """Parse a bivariate polynomial in x and y."""
    terms = parse_terms(text, ("x", "y"))
    return BPoly(terms)


def parse_rational(text):
    """Parse a rational literal ``p`` or ``p/q`` (optionally signed)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}") from exc
