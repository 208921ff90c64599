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

The text is tokenized in one regex pass, and each sum is added once by
the term kernel's ``add_terms``.  The module is variable-set generic:
the CLI parses projective input in x, y, z and the classifier its
normal-form templates in x, y, a, b, c, so the product and power (the
only arithmetic left here) work on exponent tuples of any length.  Its
term dicts are canonical (no zero coefficient), so ``parse_poly``, the
bivariate entry point, wraps them in a :class:`~lctplane.poly.BPoly`
without checking them again.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add

from .errors import ExponentTooLarge, NonPolynomial, ParseError, TooManyTerms
from .poly import BPoly, add_terms, scale_terms

__all__ = ["MAX_EXPONENT", "MAX_TERMS", "parse_poly", "parse_terms", "parse_rational"]

MAX_EXPONENT = 1000
MAX_TERMS = 10_000

# One match per token; the last group catches any other character, so
# ``finditer`` skips nothing but whitespace.
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([-+*/^()])|(\S))")
_KINDS = (None, "int", "name", "op")


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 4:
            raise ParseError(f"unexpected character {m[4]!r}", m.start(4))
        value = m[group]
        tokens.append((_KINDS[group], int(value) if group == 1 else value, m.start(group)))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Parses into n-variable term dicts: {(e_1, ..., e_n): Fraction}.

    Sums and negations go through the term kernel (``add_terms``,
    ``scale_terms``), which does not care how long an exponent key is.
    The product and power stay here because they need n-variable keys:
    ``--projective`` reads x, y and z, and must see every term of the
    homogeneous form, since terms of different degrees can cancel once the
    chart variable is set to 1.  The kernel's ``mul_terms`` keeps its
    bivariate key, which the resolution's inner loops run on.
    """

    def __init__(self, text, variables):
        self.variables = tuple(variables)
        self.tokens = _tokenize(text)
        self.idx = 0

    # token helpers

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        self.idx += 1

    def take(self, ops):
        """Consume and return the next token's operator if it is in ``ops``, else None."""
        kind, value, _ = self.tokens[self.idx]
        if kind == "op" and value in ops:
            self.idx += 1
            return value
        return None

    def expect_op(self, op):
        if not self.take(op):
            raise ParseError(f"expected {op!r}", self.peek()[2])

    # n-variable product and power (see the class docstring)

    def _const(self, c):
        c = Fraction(c)
        return {(0,) * len(self.variables): c} if c else {}

    def _mul(self, a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(map(add, ea, eb))
                acc = out.get(exp)
                if acc is None:
                    out[exp] = ca * cb
                else:
                    acc = acc + ca * cb
                    if acc:
                        out[exp] = acc
                    else:
                        del out[exp]
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
        summands = []
        sign = self.take("+-")
        while True:
            summand = self.term()
            summands.append(scale_terms(summand, -1) if sign == "-" else summand)
            sign = self.take("+-")
            if sign is None:
                return add_terms(*summands)

    def term(self):
        total = self.factor()
        while True:
            kind, value, pos = self.peek()
            if self.take("*"):
                rhs = self.factor()
                degrees = map(sum, zip(_max_exponents(total), _max_exponents(rhs)))
                _check_terms("product", len(total) * len(rhs), degrees, pos)
                total = self._mul(total, rhs)
            elif kind == "op" and value == "/":
                raise NonPolynomial("division is only allowed inside rational literals", pos)
            elif kind in ("int", "name") or (kind == "op" and value == "("):
                raise ParseError("implicit multiplication by juxtaposition is not allowed", pos)
            else:
                return total

    def factor(self):
        base = self.base()
        pos = self.peek()[2]
        if self.take("^"):
            n = self.exponent()
            degree = max((sum(exp) for exp in base), default=0)
            if max(n, n * degree) > MAX_EXPONENT:
                raise ExponentTooLarge(
                    f"power exceeds the exponent limit {MAX_EXPONENT} (at position {pos})"
                )
            if len(base) > 1:
                products = math.comb(n + len(base) - 1, n)
                _check_terms("power", products, (n * d for d in _max_exponents(base)), pos)
            base = self._pow(base, n)
        return base

    def exponent(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            return value
        if self.take("("):
            # only to diagnose x^(-1) as NonPolynomial, per the grammar
            sign_pos = self.peek()[2]
            sign = self.take("+-")
            kind, value, pos = self.peek()
            if kind != "int":
                raise ParseError("expected integer exponent", pos)
            self.advance()
            self.expect_op(")")
            if sign == "-":
                raise NonPolynomial("negative exponent", sign_pos)
            return value
        raise ParseError("expected nonnegative integer exponent", pos)

    def base(self):
        kind, value, pos = self.peek()
        if kind == "name":
            if value not in self.variables:
                raise ParseError(
                    f"unknown variable {value!r}, expected one of {'/'.join(self.variables)}", pos
                )
            self.advance()
            return {tuple(int(v == value) for v in self.variables): Fraction(1)}
        if kind == "int":
            self.advance()
            if not self.take("/"):
                return self._const(value)
            kind, denominator, pos = self.peek()
            if kind == "name":
                raise NonPolynomial("division by a variable", pos)
            if kind != "int":
                raise ParseError("expected positive integer denominator", pos)
            if denominator == 0:
                raise ParseError("zero denominator", pos)
            self.advance()
            return self._const(Fraction(value, denominator))
        if self.take("("):
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
    return BPoly._raw(parse_terms(text, ("x", "y")))


def parse_rational(text):
    """Parse a rational literal ``p`` or ``p/q`` (optionally signed)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}") from exc
