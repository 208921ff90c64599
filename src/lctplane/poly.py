"""Sparse bivariate polynomials with exact rational coefficients.

A polynomial in x, y is a map from exponent pairs ``(i, j)`` to nonzero
``Fraction`` coefficients; the zero polynomial is the empty map.  All
values are immutable and every operation is pure, so everything here is
safe to share between threads.

The term order used for rendering and leading-term extraction is graded
lexicographic (total degree first, then x-degree).

Bivariate gcds are delegated to sympy's exact dense gcd over ``ZZ[x, y]``
(a heuristic gcd with a PRS fallback, on the operands with their
denominators cleared); sympy is imported on the first gcd, so code that
never takes one never loads it.  ``translate`` is an exact integer Taylor
shift done one variable at a time (``shift_terms``); everything else is
the term-dict kernel below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    BothZero,
    DivisorZero,
    NotDivisible,
    SingularMatrix,
    ZeroPolynomial,
)
from .extended import INF, NEG_INF

__all__ = [
    "BPoly",
    "BinaryForm",
    "Factorization",
    "ZERO",
    "ONE",
    "X",
    "Y",
    "gcd_bivariate",
    "gcd_many",
    "squarefree_decomposition",
    "divides",
    "normalize_primitive",
    "restrict_coeffs",
]


def _grlex_key(exp):
    i, j = exp
    return (i + j, i)


# ---------------------------------------------------------------------------
# Term-dict kernels: the inner loops of all polynomial arithmetic.  Terms
# are plain dicts mapping ``(i, j)`` to nonzero ``Fraction`` coefficients.
# ---------------------------------------------------------------------------


def add_terms(first, *rest):
    """Sum of any number of term dicts, zero coefficients dropped.

    Only ``first`` is copied; the others are read once, in order.  Keys
    may be exponent tuples of any length (the parser sums n-variable
    terms here too).
    """
    out = dict(first)
    for b in rest:
        for key, coeff in b.items():
            acc = out.get(key)
            if acc is None:
                out[key] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return out


def mul_terms(a, b):
    """Product of two term dicts, zero coefficients dropped."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            acc = out.get(key)
            if acc is None:
                out[key] = c1 * c2
            else:
                acc = acc + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    del out[key]
    return out


def scale_terms(a, c):
    """Term dict multiplied by a nonzero scalar."""
    return {key: coeff * c for key, coeff in a.items()}


def shift_terms(a, var, s):
    """Term dict with variable ``var`` (0 for x, 1 for y) replaced by
    ``var + s``, for a nonzero rational ``s = p/q``.

    Taylor shift one column at a time (the terms sharing the other
    variable's exponent), in integers.  Write ``v`` for ``var``; with the
    column over the common denominator ``L`` and ``n`` its top degree,
    ``N_e v^e`` contributes ``N_e C(e, k) p^(e-k) q^(n-e+k)`` to the
    numerator of ``v^k``, whose coefficient is that numerator over
    ``L q^n``.
    """
    p, q = s.numerator, s.denominator
    columns = {}
    for exp, coeff in a.items():
        columns.setdefault(exp[1 - var], []).append((exp[var], coeff))
    out = {}
    for other, column in columns.items():
        n = max(e for e, _ in column)
        denom = math.lcm(*(coeff.denominator for _, coeff in column))
        ppow, qpow = [1], [1]
        for _ in range(n):
            ppow.append(ppow[-1] * p)
            qpow.append(qpow[-1] * q)
        acc = [0] * (n + 1)
        for e, coeff in column:
            num = coeff.numerator * (denom // coeff.denominator)
            binom = 1
            for k in range(e, -1, -1):
                acc[k] += num * binom * ppow[e - k] * qpow[n - e + k]
                binom = binom * k // (e - k + 1)
        denom *= qpow[n]
        for k, v in enumerate(acc):
            if v:
                out[(k, other) if var == 0 else (other, k)] = Fraction(v, denom)
    return out


class BPoly:
    """Immutable sparse bivariate polynomial over the rationals."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        canonical = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term {(i, j)}")
                c = Fraction(c)
                if c:
                    canonical[(int(i), int(j))] = c
        object.__setattr__(self, "_terms", canonical)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("BPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def _raw(cls, terms):
        """Wrap an already-canonical term dict without copying checks."""
        self = cls.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def zero(cls):
        return ZERO

    @classmethod
    def constant(cls, c):
        c = Fraction(c)
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def monomial(cls, i, j, c=1):
        c = Fraction(c)
        if c == 0:
            return ZERO
        return cls._raw({(i, j): c})

    # -- basic structure -------------------------------------------------

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    @property
    def degree(self):
        """Total degree; ``NEG_INF`` for the zero polynomial."""
        if not self._terms:
            return NEG_INF
        return max(i + j for i, j in self._terms)

    def coefficient(self, i, j):
        return self._terms.get((i, j), Fraction(0))

    def is_constant(self):
        return all(exp == (0, 0) for exp in self._terms)

    def leading_term(self):
        """Graded-lex leading ``((i, j), coefficient)``; input nonzero."""
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        exp = max(self._terms, key=_grlex_key)
        return exp, self._terms[exp]

    # -- equality, hashing, rendering ------------------------------------

    def __eq__(self, other):
        if isinstance(other, BPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == BPoly.constant(other)._terms
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def render(self):
        """Canonical text form, parseable back by ``parse_poly``."""
        if not self._terms:
            return "0"
        pieces = []
        for exp in sorted(self._terms, key=_grlex_key, reverse=True):
            i, j = exp
            c = self._terms[exp]
            mono = []
            if i == 1:
                mono.append("x")
            elif i > 1:
                mono.append(f"x^{i}")
            if j == 1:
                mono.append("y")
            elif j > 1:
                mono.append(f"y^{j}")
            mono_text = "*".join(mono)
            mag = abs(c)
            if not mono_text:
                body = str(mag)
            elif mag == 1:
                body = mono_text
            else:
                body = f"{mag}*{mono_text}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"BPoly({self.render()!r})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return BPoly._raw(add_terms(self._terms, other._terms))

    __radd__ = __add__

    def __neg__(self):
        return BPoly._raw(scale_terms(self._terms, Fraction(-1)))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return ZERO
            return BPoly._raw(scale_terms(self._terms, c))
        if isinstance(other, BPoly):
            return BPoly._raw(mul_terms(self._terms, other._terms))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base2 = base * base if n > 1 else base
            base = base2
            n >>= 1
        return result

    def __bool__(self):
        return bool(self._terms)

    # -- orders and parts ------------------------------------------------

    def multiplicity(self):
        """Order of vanishing at the origin; ``INF`` for zero."""
        if not self._terms:
            return INF
        return min(i + j for i, j in self._terms)

    def homogeneous_part(self, k):
        """Sum of the terms of total degree ``k`` (possibly zero)."""
        picked = {exp: c for exp, c in self._terms.items() if exp[0] + exp[1] == k}
        return BinaryForm._raw(picked)

    def weighted_order(self, w):
        """Minimal weighted degree and the weighted leading part.

        ``w`` is a pair of positive rationals.  Raises ``ZeroPolynomial``
        for the zero polynomial.
        """
        w1, w2 = Fraction(w[0]), Fraction(w[1])
        if w1 <= 0 or w2 <= 0:
            raise ValueError("weights must be positive")
        if not self._terms:
            raise ZeroPolynomial("weighted order of the zero polynomial")
        wt = min(i * w1 + j * w2 for i, j in self._terms)
        lead = {
            exp: c
            for exp, c in self._terms.items()
            if exp[0] * w1 + exp[1] * w2 == wt
        }
        return wt, BPoly._raw(lead)

    def derivative(self, var):
        """Partial derivative with respect to ``"x"`` or ``"y"``."""
        out = {}
        if var == "x":
            for (i, j), c in self._terms.items():
                if i:
                    out[(i - 1, j)] = c * i
        elif var == "y":
            for (i, j), c in self._terms.items():
                if j:
                    out[(i, j - 1)] = c * j
        else:
            raise ValueError(f"unknown variable {var!r}")
        return BPoly._raw(out)

    # -- substitution ----------------------------------------------------

    def substitute(self, sx, sy):
        """Compose with ``x -> sx``, ``y -> sy`` (both ``BPoly``)."""
        max_i = max((i for i, _ in self._terms), default=0)
        max_j = max((j for _, j in self._terms), default=0)
        xpows = [ONE]
        for _ in range(max_i):
            xpows.append(xpows[-1] * sx)
        ypows = [ONE]
        for _ in range(max_j):
            ypows.append(ypows[-1] * sy)
        result = ZERO
        for (i, j), c in self._terms.items():
            result = result + xpows[i] * ypows[j] * c
        return result

    def translate(self, p):
        """``f(x + p1, y + p2)``; degree is preserved.

        An exact Taylor shift, first in y and then in x (``shift_terms``):
        the same terms as ``substitute(X + p1, Y + p2)`` at a cost per term
        of its degree in the shifted variable, with no ``BPoly`` or
        ``Fraction`` arithmetic in the inner loop.
        """
        p1, p2 = Fraction(p[0]), Fraction(p[1])
        terms = self._terms
        if p2:
            terms = shift_terms(terms, 1, p2)
        if p1:
            terms = shift_terms(terms, 0, p1)
        return self if terms is self._terms else BPoly._raw(terms)

    def linear_change(self, m):
        """Compose with the invertible linear map ``(x, y) -> M (x, y)``."""
        (a, b), (c, d) = m
        a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
        if a * d - b * c == 0:
            raise SingularMatrix("linear change must be invertible")
        return self.substitute(X * a + Y * b, X * c + Y * d)

    # -- exact division --------------------------------------------------

    def divide_exact(self, g):
        """Quotient ``q`` with ``q * g == self``; ``NotDivisible`` otherwise."""
        if not isinstance(g, BPoly):
            g = BPoly.constant(g)
        if g.is_zero:
            raise DivisorZero("division by the zero polynomial")
        if not self._terms:
            return ZERO
        g_exp, g_coeff = g.leading_term()
        rem = dict(self._terms)
        quot = {}
        while rem:
            r_exp = max(rem, key=_grlex_key)
            di, dj = r_exp[0] - g_exp[0], r_exp[1] - g_exp[1]
            if di < 0 or dj < 0:
                raise NotDivisible(f"{g} does not divide {self}")
            c = rem[r_exp] / g_coeff
            quot[(di, dj)] = quot.get((di, dj), Fraction(0)) + c
            rem = add_terms(
                rem, scale_terms(mul_terms({(di, dj): Fraction(1)}, g._terms), -c)
            )
        return BPoly({exp: c for exp, c in quot.items() if c})


class BinaryForm(BPoly):
    """A homogeneous bivariate polynomial (possibly zero).

    Instances arise as homogeneous parts and tangent cones; the form
    degree is recoverable from any stored term.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__(terms)
        degs = {i + j for i, j in self._terms}
        if len(degs) > 1:
            raise ValueError("binary form must be homogeneous")


ZERO = BPoly._raw({})
ONE = BPoly._raw({(0, 0): Fraction(1)})
X = BPoly._raw({(1, 0): Fraction(1)})
Y = BPoly._raw({(0, 1): Fraction(1)})


def _coerce(value):
    if isinstance(value, BPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BPoly.constant(value)
    return NotImplemented


@dataclass(frozen=True)
class Factorization:
    """``unit * prod(factor ** exponent)`` reconstructing a polynomial.

    ``grade`` is ``"irreducible"`` for a full factorization over the
    rationals and ``"squarefree"`` for a squarefree-grade decomposition
    (factors pairwise coprime and squarefree, not necessarily prime).
    Factors are primitive with integer coefficients and positive
    graded-lex leading coefficient, pairwise non-associate.
    """

    unit: Fraction
    factors: tuple
    grade: str = "irreducible"

    def reconstruct(self):
        out = BPoly.constant(self.unit)
        for factor, exp in self.factors:
            out = out * factor**exp
        return out


def normalize_primitive(f):
    """Split ``f = unit * primitive`` with integer primitive content-1 part
    whose graded-lex leading coefficient is positive."""
    if f.is_zero:
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    denom_lcm = 1
    for c in f.terms.values():
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    scaled = {exp: c * denom_lcm for exp, c in f.terms.items()}
    num_gcd = 0
    for c in scaled.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
    lead_exp = max(scaled, key=_grlex_key)
    sign = 1 if scaled[lead_exp] > 0 else -1
    unit = Fraction(sign * num_gcd, denom_lcm)
    primitive = BPoly(
        {exp: c / (sign * num_gcd) for exp, c in scaled.items()}
    )
    return unit, primitive


def divides(g, f):
    """True iff ``g`` divides ``f`` exactly (``g`` nonzero)."""
    try:
        f.divide_exact(g)
        return True
    except NotDivisible:
        return False


# ---------------------------------------------------------------------------
# Univariate helpers over Q (coefficient lists, index = degree).
# ---------------------------------------------------------------------------


def restrict_coeffs(f, var_zero):
    """Coefficient list of f with the variable ``var_zero`` set to 0 (index =
    degree of the other variable); ``[]`` when ``var_zero`` divides f."""
    idx = 0 if var_zero == "x" else 1
    pairs = [(exp[1 - idx], c) for exp, c in f.terms.items() if exp[idx] == 0]
    coeffs = [Fraction(0)] * (max((d for d, _ in pairs), default=-1) + 1)
    for d, c in pairs:
        coeffs[d] = c
    return coeffs


# ---------------------------------------------------------------------------
# Bivariate gcd, delegated to sympy's exact dense gcd over Z[x, y].
# ---------------------------------------------------------------------------


def _to_dense(f):
    """``f`` times the lcm of its denominators, as a sympy dense polynomial
    in ``ZZ[x, y]``."""
    from sympy.polys.densebasic import dmp_from_dict
    from sympy.polys.domains import ZZ

    denom = math.lcm(*(c.denominator for c in f._terms.values()))
    return dmp_from_dict(
        {exp: ZZ(c.numerator * (denom // c.denominator)) for exp, c in f._terms.items()},
        1,
        ZZ,
    )


def gcd_bivariate(f, g):
    """A gcd of ``f`` and ``g``, primitive with positive leading coefficient.

    Raises ``BothZero`` when both inputs vanish identically.
    """
    if f.is_zero and g.is_zero:
        raise BothZero("gcd of two zero polynomials")
    from sympy.polys.densebasic import dmp_to_dict
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dmp_gcd

    # Not PolyElement.gcd: over ZZ it runs heugcd with no PRS fallback and can fail.
    h = dmp_gcd(_to_dense(f), _to_dense(g), 1, ZZ)
    terms = dmp_to_dict(h, 1, ZZ)
    return normalize_primitive(
        BPoly({exp: Fraction(int(c)) for exp, c in terms.items()})
    )[1]


def gcd_many(polys):
    """gcd of a sequence of polynomials, ignoring zero entries."""
    acc = None
    for p in polys:
        if p.is_zero:
            continue
        acc = p if acc is None else gcd_bivariate(acc, p)
        if acc.is_constant():
            return ONE
    if acc is None:
        raise BothZero("gcd of all-zero sequence")
    return normalize_primitive(acc)[1]


def squarefree_decomposition(f):
    """Squarefree-grade decomposition ``unit * prod(a_e ** e)``.

    The returned factors are pairwise coprime, squarefree, primitive and
    normalized; exponents are strictly increasing.  Char-0 Musser scheme
    driven by ``gcd(f, f_x, f_y)``, each gcd from ``gcd_bivariate`` (sympy's
    exact dense gcd).
    """
    if f.is_zero:
        raise ZeroPolynomial("squarefree decomposition of zero")
    if f.is_constant():
        return Factorization(
            unit=f.coefficient(0, 0), factors=(), grade="squarefree"
        )
    g = gcd_many([f, f.derivative("x"), f.derivative("y")])
    c = f.divide_exact(g)  # product of the distinct prime factors
    factors = []
    e = 1
    while not g.is_constant():
        d = gcd_bivariate(g, c)
        part = c.divide_exact(d)
        if not part.is_constant():
            factors.append((normalize_primitive(part)[1], e))
        c = d
        g = g.divide_exact(d)
        e += 1
    if not c.is_constant():
        factors.append((normalize_primitive(c)[1], e))
    rebuilt = ONE
    for factor, exp in factors:
        rebuilt = rebuilt * factor**exp
    unit_poly = f.divide_exact(rebuilt)
    assert unit_poly.is_constant()
    return Factorization(
        unit=unit_poly.coefficient(0, 0),
        factors=tuple(factors),
        grade="squarefree",
    )
