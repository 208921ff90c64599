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
whichever is smaller.  A power is charged ``n * (b + bits(t))``
coefficient bits, where b is the largest bit length of a numerator or
denominator of the base's coefficients in lowest terms (for a base with
integer coefficients this bounds the result's), and one charged more than
``MAX_COEFF_BITS`` is rejected with
:class:`~lctplane.errors.CoefficientTooLarge` before it is expanded.

``parse_poly`` first tries the flat-sum reader: one pattern pass that
checks the whole text is a sum of signed monomials ``c[/q][*x[^i]][*y[^j]]``
in that order, with whitespace allowed only around the signs and at the
ends (the form ``BPoly.render`` writes), and reads each monomial as it is
matched, summing integer numerators over the lcm of the denominators.
Any other text (parentheses, powers, another factor order, z), and a flat
sum with a zero denominator, an exponent over ``MAX_EXPONENT`` or an
over-long literal, goes to the grammar, so every error and its position
are the grammar's.  The grammar's tokens are one operator or one literal
each, and digits are ASCII only.

The grammar's values are integer term dicts over one positive ``int``
denominator, and its arithmetic is the term kernel's: each sum is added
once by ``add_terms`` over the lcm of its denominators, and a product or
power (``mul_terms``, ``pow_terms``, shared with
:class:`~lctplane.poly.BPoly`) multiplies them.  The kernel's keys may be
of any length, because the CLI parses projective input in x, y, z.
``parse_poly`` divides the grammar's result by its common factor, as
every ``BPoly`` is stored, and ``parse_terms`` gives it as rationals.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .errors import CoefficientTooLarge, ExponentTooLarge, NonPolynomial, ParseError
from .errors import TooManyTerms
from .poly import _canonical, add_terms, mul_terms, pow_terms, scale_terms

__all__ = ["MAX_COEFF_BITS", "MAX_EXPONENT", "MAX_TERMS", "coeff_bits", "parse_poly",
           "parse_terms", "parse_rational"]

MAX_EXPONENT = 1000
MAX_TERMS = 10_000
MAX_COEFF_BITS = 1 << 16

# One match per token; the last group catches any other character.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z_]\w*)|([-+*/^()])|(\S))")
_KINDS = (None, "int", "name", "op")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


@functools.cache
def _flat():
    """One signed monomial ``c[/q][*x[^i]][*y[^j]]`` of a flat sum, which a
    sign or the end of the stripped text must follow.  Each ``*`` is
    required only after a factor (the conditional groups), and the first
    lookahead keeps a monomial from being empty.  Where no monomial
    matches, the last group takes the rest of the text, so ``findall``
    skips nothing and the scan is linear in the text.  Compiled on the
    first parse, not on import."""
    return re.compile(
        r"\s*(?:([+-])\s*)?(?=[0-9xy])(?:([0-9]+)(?:/([0-9]+))?)?(?:(?(2)\*)(x)(?:\^([0-9]+))?)?"
        r"(?:(?(2)\*|(?(4)\*))(y)(?:\^([0-9]+))?)?(?=\s*[-+]|\Z)|\s*(\S[\s\S]*)"
    )


def _read_flat(text):
    """The ``BPoly`` of ``text`` if it is a flat sum of monomials in x and
    y, read in one pattern pass; None if the grammar must read it or
    report its error (see the module docstring)."""
    monomials = _flat().findall(text.strip())
    if not monomials:
        return None
    try:
        den = math.lcm(*(int(m[2]) for m in monomials if m[2]))
        if not den:  # a zero denominator
            return None
        sums = {}
        for sign, p, q, x, i, y, j, other in monomials:
            if other:
                return None
            i = int(i or 1) if x else 0
            j = int(j or 1) if y else 0
            if i > MAX_EXPONENT or j > MAX_EXPONENT:
                return None
            c = int(p or 1) * (den // int(q) if q else den)
            exp = (i, j)
            sums[exp] = sums.get(exp, 0) + (-c if sign == "-" else c)
    except ValueError:  # beyond the interpreter's int string-conversion limit
        return None
    return _canonical({exp: s for exp, s in sums.items() if s}, den)


def _tokenize(text):
    """The tokens of ``text`` as ``(kind, value, position)``, ending in an
    ``end`` token.  Each token is matched where the last one ended, and
    only trailing whitespace fails to match, so the scan is linear."""
    tokens = []
    pos = 0
    while m := _TOKEN.match(text, pos):
        group = m.lastindex
        if group == 4:
            raise ParseError(f"unexpected character {m[4]!r}", m.start(4))
        value = m[group]
        if group == 1:
            try:
                value = int(value)
            except ValueError:  # beyond the interpreter's int string-conversion limit
                raise ParseError(f"integer literal too long ({len(value)} digits)", m.start(1)) from None
        tokens.append((_KINDS[group], value, m.start(group)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Parses into ``(terms, den)`` pairs: an integer term dict
    ``{(e_1, ..., e_n): numerator}`` over a positive ``int`` denominator.

    The arithmetic is the term kernel's (``add_terms``, ``scale_terms``,
    ``mul_terms``, ``pow_terms``), whose keys may be of any length:
    ``--projective`` reads x, y and z, and must see every term of the
    homogeneous form, since terms of different degrees can cancel once the
    chart variable is set to 1.  A sum is taken over the lcm of its
    summands' denominators, and a product or power multiplies them.
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

    def _const(self, c, den=1):
        return ({(0,) * len(self.variables): c} if c else {}), den

    # grammar rules

    def parse(self):
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return result

    def expr(self):
        # a summand is (terms, den), with the sign of a subtracted one on den
        summands = []
        sign = self.take("+-")
        while True:
            terms, den = self.term()
            summands.append((terms, -den if sign == "-" else den))
            sign = self.take("+-")
            if sign is None:
                den = math.lcm(*(d for _, d in summands))
                terms = (t if d == den else scale_terms(t, den // d) for t, d in summands)
                return add_terms(*terms), den

    def term(self):
        total, den = self.factor()
        while True:
            kind, value, pos = self.tokens[self.idx]
            if kind == "op" and value == "*":
                self.idx += 1
                rhs, rhs_den = self.factor()
                degrees = map(sum, zip(_max_exponents(total), _max_exponents(rhs)))
                _check_terms("product", len(total) * len(rhs), degrees, pos)
                total, den = mul_terms(total, rhs), den * rhs_den
            elif kind == "op" and value == "/":
                raise NonPolynomial("division is only allowed inside rational literals", pos)
            elif kind in ("int", "name") or (kind == "op" and value == "("):
                raise ParseError("implicit multiplication by juxtaposition is not allowed", pos)
            else:
                return total, den

    def factor(self):
        base, den = self.base()
        kind, value, pos = self.tokens[self.idx]
        if kind == "op" and value == "^":
            self.idx += 1
            n = self.exponent()
            degree = max((sum(exp) for exp in base), default=0)
            if max(n, n * degree) > MAX_EXPONENT:
                raise ExponentTooLarge(
                    f"power exceeds the exponent limit {MAX_EXPONENT} (at position {pos})"
                )
            if len(base) > 1:
                products = math.comb(n + len(base) - 1, n)
                _check_terms("power", products, (n * d for d in _max_exponents(base)), pos)
            if n * (coeff_bits(base.values(), den) + len(base).bit_length()) > MAX_COEFF_BITS:
                raise CoefficientTooLarge(
                    f"power exceeds the coefficient limit of {MAX_COEFF_BITS} bits "
                    f"(at position {pos})"
                )
            # in lowest terms, so the power is as long as the charge says
            g = math.gcd(den, *base.values())
            if g != 1:
                base, den = {exp: c // g for exp, c in base.items()}, den // g
            base, den = pow_terms(base, n, {(0,) * len(self.variables): 1}), den**n
        return base, den

    def exponent(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            return value
        # a sign is read only to diagnose x^-1 and x^(-1) as NonPolynomial,
        # per the grammar
        if value == "-" and self.tokens[self.idx + 1][0] == "int":
            raise NonPolynomial("negative exponent", pos)
        if self.take("("):
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
            return {tuple(int(v == value) for v in self.variables): 1}, 1
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
            return self._const(value, denominator)
        if self.take("("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected variable, rational or parenthesized expression", pos)


def _max_exponents(terms):
    """Per-variable degrees of a nonzero n-variable term dict."""
    return map(max, zip(*terms))


def coeff_bits(coeffs, den=1):
    """The largest bit length of a numerator or denominator among the
    reduced fractions ``c / den``, ``c`` in ``coeffs`` (ints or rationals)."""
    bits = 0
    for c in coeffs:
        g = math.gcd(c.numerator, den)
        bits = max(bits, (c.numerator // g).bit_length(), (c.denominator * den // g).bit_length())
    return bits


def _check_terms(what, products, degrees, pos):
    """Refuse a result that neither its number of monomial ``products`` nor
    the box of its per-variable ``degrees`` bounds to ``MAX_TERMS`` terms."""
    if products > MAX_TERMS and math.prod(d + 1 for d in degrees) > MAX_TERMS:
        raise TooManyTerms(f"{what} exceeds the term limit {MAX_TERMS} (at position {pos})")


def _grammar(text, variables):
    """The grammar's ``(terms, den)`` for ``text`` over the given variable
    names.  Nesting deeper than the interpreter's recursion limit allows
    is a ``ParseError``."""
    parser = _Parser(text, variables)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None


def parse_terms(text, variables):
    """Parse ``text`` over the given variable names into an n-variable
    term dict with rational coefficients."""
    terms, den = _grammar(text, variables)
    return terms if den == 1 else {exp: Fraction(c, den) for exp, c in terms.items()}


def parse_poly(text):
    """Parse a bivariate polynomial in x and y: a flat sum of monomials
    by ``_read_flat``, anything else by the grammar."""
    f = _read_flat(text)
    return f if f is not None else _canonical(*_grammar(text, ("x", "y")))


def parse_rational(text):
    """Parse a rational literal ``[+-]?int ('/' posint)?``, with surrounding
    whitespace; any other form (a decimal point, an exponent, a digit
    separator, a zero denominator) is a ``ParseError``."""
    m = _RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"invalid rational {text!r}")
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:  # over-long literal, q = 0
        raise ParseError(f"invalid rational {text!r}") from exc
