"""Unit tests for univariate and binary-form factorization."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.sqfreetools import dup_sqf_list

from lctplane.errors import ZeroPolynomial
from lctplane.factorize import factor_univariate, form_coeffs, squarefree_parts
from lctplane.localinv import tangent_cone_pattern
from lctplane.poly import BPoly, X, Y

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


def _integer_terms(f):
    """The numerators of ``f`` over the lcm of its denominators."""
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    return {e: int(c * den) for e, c in f.terms.items()}, den


def _homogenized(part):
    """``x^n * part(y/x)`` for a coefficient list of length n + 1 in t = y/x."""
    n = len(part) - 1
    return BPoly({(n - j, j): c for j, c in enumerate(part)})


class TestSquarefreeBinaryForm:
    """A binary form's squarefree decomposition: ``form_coeffs`` reads it in
    t = y/x, ``squarefree_parts`` splits that, and x = 0 sits at t = infinity."""

    def test_parts(self):
        # x^2 * y * (x + 2y): entry j is the coefficient of x^(4-j) y^j
        coeffs = form_coeffs({(3, 1): 1, (2, 2): 2, (5, 0): 7, (0, 1): 3}, 4)
        assert coeffs == [0, 1, 2]
        assert squarefree_parts(coeffs) == [([0, 1, 2], 1)]
        assert 4 + 1 - len(coeffs) == 2  # the line x = 0, twice

    def test_root_at_infinity_only(self):
        # -2 x^4: the line x = 0 (t = infinity) four times, no root in t
        coeffs = form_coeffs({(4, 0): -2, (0, 5): 1}, 4)
        assert coeffs == [-2]
        assert squarefree_parts(coeffs) == []

    def test_zero_part(self):
        assert form_coeffs({(3, 1): 1, (0, 2): 5}, 3) == []
        assert form_coeffs({}, 0) == []

    @given(binary_forms)
    def test_rebuilds_input(self, f):
        terms, den = _integer_terms(f)
        k = f.degree
        coeffs = form_coeffs(terms, k)
        assert coeffs and coeffs[-1]
        parts = squarefree_parts(coeffs)
        unit = Fraction(coeffs[-1], den * math.prod(part[-1] ** e for part, e in parts))
        rebuilt = BPoly.constant(unit) * X ** (k + 1 - len(coeffs))
        for part, e in parts:
            rebuilt = rebuilt * _homogenized(part) ** e
        assert rebuilt == f

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
    def test_zero(self):
        with pytest.raises(ZeroPolynomial) as caught:
            factor_univariate([])
        assert caught.type is ZeroPolynomial
        assert caught.value.args == ("factorization of the zero polynomial",)

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
