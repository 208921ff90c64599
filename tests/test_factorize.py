"""Unit tests for univariate and binary-form factorization."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.sqfreetools import dup_sqf_list

from lctplane.errors import ZeroPolynomial
from lctplane.factorize import factor_univariate, squarefree_binary_form, squarefree_parts
from lctplane.localinv import tangent_cone_pattern
from lctplane.parse import parse_poly
from lctplane.poly import BPoly, X, Y, gcd_bivariate, gcd_many, normalize_primitive

_coeffs = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=5
).filter(any)


def _univariate(coeffs):
    """``sum(c * x^i)`` as a ``BPoly``."""
    return BPoly({(i, 0): c for i, c in enumerate(coeffs)})


# Binary forms: a unit times up to four powers of rational lines, x, y and
# irreducible quadratics x^2 + p*x*y + q*y^2 (p^2 < 4q).
_slopes = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_irreducible_quadratics = st.tuples(_slopes, _slopes).map(
    lambda pq: X**2 + X * Y * pq[0] + Y**2 * (pq[0] ** 2 / 4 + 1 + pq[1] ** 2)
)
_form_factors = st.one_of(
    st.just(X), st.just(Y), _slopes.map(lambda s: X - Y * s), _irreducible_quadratics
)
binary_forms = st.builds(
    lambda unit, powers: math.prod((f**e for f, e in powers), start=BPoly.constant(unit)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    st.lists(st.tuples(_form_factors, st.integers(1, 4)), min_size=1, max_size=4),
).filter(lambda f: f.degree >= 1)


def form(text):
    f = parse_poly(text)
    return f.homogeneous_part(f.degree)


def _rebuilt(unit, parts):
    """``unit * prod(part ** exp)``."""
    return math.prod((part**exp for part, exp in parts), start=BPoly.constant(unit))


class TestSquarefreeBinaryForm:
    def test_parts(self):
        unit, parts = squarefree_binary_form(form("x^3*y + x^2*y^2"))
        assert dict(parts) == {parse_poly("x + y"): 1, X: 2, Y: 1}
        assert _rebuilt(unit, parts) == form("x^3*y + x^2*y^2")

    def test_root_at_infinity_only(self):
        unit, parts = squarefree_binary_form(Fraction(-2, 3) * form("y^4"))
        assert parts == [(Y, 4)]
        assert unit == Fraction(-2, 3)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            squarefree_binary_form(form("0"))

    @given(binary_forms)
    def test_rebuilds_input(self, f):
        unit, factors = squarefree_binary_form(f)
        assert _rebuilt(unit, factors) == f
        parts = [part for part, _ in factors]
        for i, part in enumerate(parts):
            assert normalize_primitive(part) == (1, part)
            assert gcd_many([part, part.derivative("x"), part.derivative("y")]).is_constant()
            assert all(gcd_bivariate(part, q).is_constant() for q in parts[i + 1 :])

    @given(binary_forms)
    def test_tangent_cone_pattern_matches_factorization(self, f):
        x, y = sympy.symbols("x y")
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
        _, factors = sympy.Poly.from_dict(terms, x, y, domain="QQ").factor_list()
        entries = []
        for factor, exp in factors:
            entries.extend([exp] * factor.total_degree())
        assert tangent_cone_pattern(f) == tuple(sorted(entries, reverse=True))
        assert tangent_cone_pattern(f + X ** (f.degree + 1)) == tangent_cone_pattern(f)


def _times(a, b):
    """The product of integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# Integer coefficient lists with a nonzero constant and a nonzero last entry.
_unit_at_zero = st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(
    lambda c: c[0] and c[-1]
)


class TestSquarefreeParts:
    @given(
        st.integers(0, 4),
        st.integers(-3, 3).filter(bool),
        st.lists(st.tuples(_unit_at_zero, st.integers(1, 4)), max_size=3),
    )
    @example(3, 5, [])  # t^v alone
    @example(2, -1, [([1, 1], 2), ([2, 0, 1], 1)])  # g has a part of exponent v
    @example(1, 1, [([1, 1], 2)])  # t enters before g's parts
    def test_matches_sympy(self, v, unit, factors):
        # f = t^v * g with g(0) != 0
        g = [unit]
        for c, e in factors:
            for _ in range(e):
                g = _times(g, c)
        f = [0] * v + g
        _, want = dup_sqf_list([ZZ(c) for c in reversed(f)], ZZ)
        assert squarefree_parts(f) == [([int(c) for c in reversed(p)], e) for p, e in want]


class TestFactorUnivariate:
    @given(_coeffs, st.one_of(st.none(), _coeffs))
    def test_rebuilds_input(self, a, b):
        # about half the inputs carry a square factor b^2
        f = _univariate(a)
        if b is not None:
            f = f * _univariate(b) ** 2
        # an integer multiple of f
        den = math.lcm(*(c.denominator for c in f.terms.values()))
        coeffs = [int(f.coefficient(i, 0) * den) for i in range(f.degree + 1)]
        unit, factors = factor_univariate(coeffs)
        rebuilt = BPoly.constant(Fraction(unit, den))
        for fac, exp in factors:
            assert len(fac) >= 2 and exp >= 1
            assert all(c.denominator == 1 for c in fac)
            assert math.gcd(*(c.numerator for c in fac)) == 1
            assert fac[-1] > 0
            rebuilt = rebuilt * _univariate(fac) ** exp
        assert rebuilt == f
