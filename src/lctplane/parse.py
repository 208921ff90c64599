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
denominator of the base (for a base with integer coefficients this bounds
the result's), and one charged more than ``MAX_COEFF_BITS`` is rejected
with :class:`~lctplane.errors.CoefficientTooLarge` before it is expanded.

The lexer's unit is a whole monomial run: one token for a ``*``-joined
product of ``int`` or ``p/q`` literals and ``var`` or ``var^n`` factors,
whose coefficient and exponent vector are computed as it is matched, so
``3/2*x^2*y - y^3`` is three tokens.  Everything else (parentheses,
powers of a parenthesized or literal base, exponents, every malformed
stretch) is read on the one-operator and one-literal tokens of the
grammar above.  A run never takes a factor followed by ``^``, ``/``,
``(``, a name or an int, never starts where an exponent or a denominator
is due, and gives way to those tokens where a zero denominator, an
unknown name, an exponent over ``MAX_EXPONENT`` or an over-long literal
must be reported, so every error and its position are the grammar's.

Each sum is added once by the term kernel's ``add_terms``, and a power
of a two-term base is written out by the binomial theorem.  The module is
variable-set generic, because the CLI parses projective input in x, y, z,
so the product and power (the only arithmetic left here) work on
exponent tuples of any length.  Integer literals and variables have
``int`` coefficients, so only a ``p/q`` literal makes a ``Fraction``;
``parse_poly``, the bivariate entry point, builds its
:class:`~lctplane.poly.BPoly` from the result.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from operator import add

from .errors import CoefficientTooLarge, ExponentTooLarge, NonPolynomial, ParseError
from .errors import TooManyTerms
from .poly import BPoly, add_terms, scale_terms

__all__ = ["MAX_COEFF_BITS", "MAX_EXPONENT", "MAX_TERMS", "coeff_bits", "parse_poly",
           "parse_terms", "parse_rational"]

MAX_EXPONENT = 1000
MAX_TERMS = 10_000
MAX_COEFF_BITS = 1 << 16

# One match per token; the last group catches any other character, so a
# scan skips nothing but whitespace.
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([-+*/^()])|(\S))")
_KINDS = (None, "int", "name", "op")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


@functools.cache
def _run():
    """A monomial run: a ``*``-joined product of ``int`` or ``p/q`` literals
    and ``name`` or ``name^n`` factors.  A factor followed by ``^``, ``/``,
    ``(``, a name or an int is left out, since the grammar reads it
    differently (``2/3^2``, ``x^2^3``) or rejects it (``x/2``, ``x y``).
    Compiled on the first parse, not on import."""
    factor = r"(?:[0-9]+(?:\s*/\s*[0-9]+)?|[A-Za-z_]\w*(?:\s*\^\s*[0-9]+)?)(?!\s*[\^/(\w])"
    return re.compile(rf"\s*({factor}(?:\s*\*\s*{factor})*)")


def _monomial(run, index):
    """The one-term dict of a monomial ``run`` over the variables of
    ``index`` (name -> position), or None when an unknown name, a zero
    denominator, an exponent over ``MAX_EXPONENT`` or an over-long literal
    in it must be reported by the grammar, on its one-literal tokens."""
    num, den, exps = 1, 1, [0] * len(index)
    try:
        for factor in run.split("*"):
            base, _, power = factor.partition("^")
            base = base.strip()
            if base[0].isdigit():  # int() ignores the surrounding whitespace
                p, _, q = base.partition("/")
                num *= int(p)
                if q:
                    q = int(q)
                    if not q:
                        return None
                    den *= q
            elif base in index:
                n = int(power) if power else 1
                if n > MAX_EXPONENT:
                    return None
                exps[index[base]] += n
            else:
                return None
    except ValueError:  # beyond the interpreter's int string-conversion limit
        return None
    if not num:
        return {}
    # a product with a p/q literal is a Fraction, as the grammar's would be
    return {tuple(exps): num if "/" not in run else Fraction(num, den)}


def _tokenize(text, variables):
    """The tokens of ``text`` as ``(kind, value, position)``, ending in an
    ``end`` token.  A monomial run is one ``mono`` token whose value is its
    term dict.  No run is read where the grammar wants an exponent or a
    denominator (after ``^``, ``^(``, ``^(`` and a sign, or ``/``) or where
    ``_monomial`` declines it; the one-operator and one-literal tokens
    are read there instead."""
    run, index = _run(), {v: i for i, v in enumerate(variables)}
    tokens = []
    pos = 0
    plain = False
    while True:
        if not plain and (m := run.match(text, pos)) and (terms := _monomial(m[1], index)) is not None:
            tokens.append(("mono", terms, m.start(1)))
            pos = m.end()
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        group = m.lastindex
        if group == 4:
            raise ParseError(f"unexpected character {m[4]!r}", m.start(4))
        value = m[group]
        if group == 1:
            try:
                value = int(value)
            except ValueError:  # beyond the interpreter's int string-conversion limit
                raise ParseError(f"integer literal too long ({len(value)} digits)", m.start(1)) from None
            plain = False
        else:
            plain = value in {"^", "/"} or (plain and value in {"(", "+", "-"})
        tokens.append((_KINDS[group], value, m.start(group)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Parses into n-variable term dicts: {(e_1, ..., e_n): int or Fraction}.

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
        self.tokens = _tokenize(text, self.variables)
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
        if len(a) == 2:
            # the binomial theorem: each k gives its own exponent, so no
            # two terms collide and none is zero
            (e1, c1), (e2, c2) = a.items()
            c1pow = [1]
            for _ in range(n):
                c1pow.append(c1pow[-1] * c1)
            out, binom, c2pow = {}, 1, 1
            for k in range(n + 1):
                exp = tuple(i * (n - k) + j * k for i, j in zip(e1, e2))
                out[exp] = binom * c1pow[n - k] * c2pow
                binom = binom * (n - k) // (k + 1)
                c2pow *= c2
            return out
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
            kind, value, pos = self.tokens[self.idx]
            if kind == "op" and value == "*":
                self.idx += 1
                rhs = self.factor()
                degrees = map(sum, zip(_max_exponents(total), _max_exponents(rhs)))
                _check_terms("product", len(total) * len(rhs), degrees, pos)
                total = self._mul(total, rhs)
            elif kind == "op" and value == "/":
                raise NonPolynomial("division is only allowed inside rational literals", pos)
            elif kind in ("mono", "int", "name") or (kind == "op" and value == "("):
                raise ParseError("implicit multiplication by juxtaposition is not allowed", pos)
            else:
                return total

    def factor(self):
        base = self.base()
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
            if n * (coeff_bits(base.values()) + len(base).bit_length()) > MAX_COEFF_BITS:
                raise CoefficientTooLarge(
                    f"power exceeds the coefficient limit of {MAX_COEFF_BITS} bits "
                    f"(at position {pos})"
                )
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
        if kind == "mono":
            self.advance()
            return value
        if kind == "name":
            if value not in self.variables:
                raise ParseError(
                    f"unknown variable {value!r}, expected one of {'/'.join(self.variables)}", pos
                )
            self.advance()
            return {tuple(int(v == value) for v in self.variables): 1}
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


def coeff_bits(coeffs):
    """The largest bit length of a numerator or denominator among ``coeffs``."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
        default=0,
    )


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
    return BPoly(parse_terms(text, ("x", "y")))


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
