"""Unit tests for the sparse bivariate polynomial core."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import Phase, given, settings, strategies as st

from lctplane.dispatch import lct
from lctplane.errors import BothZero, DivisorZero, ZeroPolynomial
from lctplane.extended import INF, NEG_INF
from lctplane.parse import parse_poly
from lctplane.poly import (
    BPoly,
    ONE,
    X,
    Y,
    ZERO,
    _PREFIX_SUM_DEGREE,
    _face,
    _newton_boundary,
    _quotient,
    certify_coprime,
    certify_squarefree,
    coprime_univariate,
    divides,
    gcd_bivariate,
    gcd_many,
    mul_terms,
    normalize_primitive,
    pow_terms,
)


def P(text):
    return parse_poly(text)


# Small nonzero polynomials: up to four terms of degree <= 2 in each variable.
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    min_size=1,
    max_size=4,
).map(BPoly)

# Sparse polynomials, possibly zero: up to six terms of degree <= 9 in each
# variable; shifts with either coordinate possibly zero.
sparse_polys = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
    max_size=6,
).map(BPoly)
# Possibly zero, up to four terms of degree <= 3 in each variable; some
# coefficients over large, pairwise coprime (prime) denominators.
_wide_coeffs = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.builds(
        Fraction,
        st.integers(-(10**12), 10**12),
        st.sampled_from((1_000_003, 998_244_353, 2**31 - 1, 2**61 - 1)),
    ),
).filter(bool)
wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), _wide_coeffs, max_size=4
).map(BPoly)
_shift_coords = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=9)
)
shifts = st.tuples(_shift_coords, _shift_coords)
# One or two dense columns of degree 16..130 in y (var 1) or in x (var 0),
# so both the running-sum shift and Horner's rule below it are drawn.
_column = st.integers(16, 130).flatmap(
    lambda m: st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool),
        min_size=m + 1,
        max_size=m + 1,
    )
)
dense_polys = st.builds(
    lambda cols, var: BPoly(
        {(k, e) if var else (e, k): c for k, col in enumerate(cols) for e, c in enumerate(col)}
    ),
    st.lists(_column, min_size=1, max_size=2),
    st.sampled_from((0, 1)),
)
_dense_shifts = st.sampled_from(
    [Fraction(v) for v in ("1", "-1", "2", "-2", "1/2", "-1/2", "3/7", "-5/3")]
)
# Nonconstant factors, a third of them in one variable only.
_one_var_polys = st.builds(
    lambda coeffs, var: BPoly(
        {(i, 0) if var == "x" else (0, i): c for i, c in enumerate(coeffs)}
    ),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=2, max_size=4),
    st.sampled_from("xy"),
)
factors = st.one_of(small_polys, sparse_polys, _one_var_polys).filter(
    lambda f: not f.is_constant()
)


def _trimmed(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# Integer coefficient lists (index = degree) with a nonzero leading entry.
int_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(_trimmed).filter(bool)


def _int_product(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return _trimmed(out)


def _sympy_gcd(f, g):
    """The reference gcd: sympy's ``Poly.gcd`` over ``QQ``, normalised."""
    def to_poly(h):
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in h.terms.items()}
        return sympy.Poly.from_dict(terms or {(0, 0): 0}, *sympy.symbols("x y"), domain=sympy.QQ)

    d = to_poly(f).gcd(to_poly(g))
    terms = {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in d.as_dict().items()}
    return normalize_primitive(BPoly(terms))[1]


def _substituted(f, p):
    """The reference ``f(x + p1, y + p2)``, by substitution."""
    return f.substitute(X + BPoly.constant(p[0]), Y + BPoly.constant(p[1]))


class TestConstruction:
    def test_canonical_no_zero_terms(self):
        f = BPoly({(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert f.terms == {(0, 1): Fraction(2)}

    def test_singletons(self):
        assert X.terms == {(1, 0): Fraction(1)}
        assert Y.terms == {(0, 1): Fraction(1)}
        assert ZERO.is_zero and ONE.is_constant()

    def test_immutable(self):
        with pytest.raises(AttributeError):
            X._terms = {}

    def test_hashable_and_equal(self):
        assert hash(P("x + y")) == hash(Y + X)
        assert P("x + y") == Y + X

    @pytest.mark.parametrize("c", [0, 3, -7, Fraction(1, 2), Fraction(-9, 4)])
    def test_constant_hashes_like_its_scalar(self, c):
        const = BPoly.constant(c)
        assert const == c and hash(const) == hash(c)
        assert len({const, c}) == 1 and len({c, const}) == 1
        assert {c: "scalar", const: "polynomial"} == {c: "polynomial"}

    @pytest.mark.parametrize("make, message", [
        (lambda: BPoly.monomial(-1, 0, 3), "negative exponent in term (-1, 0)"),
        (lambda: lct(BPoly.monomial(-1, 2) + BPoly.monomial(2, 0)), "negative exponent in term (-1, 2)"),
        (lambda: BPoly({(-1, 0): 1}), "negative exponent in term (-1, 0)"),
        (lambda: BPoly.monomial(1.5, 0), "non-integral exponent in term (1.5, 0)"),
        (lambda: BPoly({(1.5, 0): 1}), "non-integral exponent in term (1.5, 0)"),
    ], ids=["monomial-negative", "lct-of-negative", "init-negative", "monomial-half", "init-half"])
    def test_exponents_are_non_negative_integers(self, make, message):
        with pytest.raises(ValueError) as caught:
            make()
        assert caught.type is ValueError and caught.value.args == (message,)

    def test_integral_exponents_of_any_type(self):
        assert BPoly({(2.0, Fraction(1)): 1}) == BPoly.monomial(2, 1) == P("x^2*y")


@pytest.mark.parametrize("call, error, message", [
    (lambda: X.derivative("z"), ValueError, "unknown variable 'z'"),
    (lambda: normalize_primitive(ZERO), ZeroPolynomial, "cannot normalize the zero polynomial"),
    (lambda: gcd_many([ZERO, ZERO]), BothZero, "gcd of all-zero sequence"),
], ids=["derivative", "normalize_primitive", "gcd_many"])
def test_documented_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert caught.type is error and caught.value.args == (message,)


def _plain(pairs):
    """``(exponent, Fraction)`` pairs summed into a dict, zeros dropped."""
    out = {}
    for exp, c in pairs:
        out[exp] = out.get(exp, 0) + c
    return {exp: c for exp, c in out.items() if c}


_scalars = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


class TestCanonicalForm:
    """Every result holds int numerators over one positive int denominator
    with no common factor, and its ``terms`` are those of plain ``Fraction``
    dict arithmetic on the operands' ``terms``."""

    @staticmethod
    def check(f, want):
        assert type(f._den) is int and f._den > 0
        assert all(type(c) is int and c for c in f._terms.values())
        assert math.gcd(f._den, *f._terms.values()) == 1
        assert f.terms == want

    @given(
        st.one_of(sparse_polys, wide_polys),
        st.one_of(sparse_polys, wide_polys),
        _scalars,
        shifts,
    )
    def test_operations(self, f, g, c, p):
        ft, gt = f.terms, g.terms
        self.check(f + g, _plain([*ft.items(), *gt.items()]))
        self.check(f - g, _plain([*ft.items(), *((e, -v) for e, v in gt.items())]))
        self.check(
            f * g,
            _plain(((i1 + i2, j1 + j2), a * b) for (i1, j1), a in ft.items() for (i2, j2), b in gt.items()),
        )
        self.check(f * c, _plain((e, v * c) for e, v in ft.items()))
        self.check(
            f.translate(p),
            _plain(
                ((a, b), v * math.comb(i, a) * math.comb(j, b) * p[0] ** (i - a) * p[1] ** (j - b))
                for (i, j), v in ft.items()
                for a in range(i + 1)
                for b in range(j + 1)
            ),
        )
        self.check(f.derivative("x"), _plain(((i - 1, j), v * i) for (i, j), v in ft.items() if i))
        self.check(f.derivative("y"), _plain(((i, j - 1), v * j) for (i, j), v in ft.items() if j))

    @given(st.one_of(sparse_polys, wide_polys), _scalars)
    def test_equal_values_have_equal_forms(self, f, c):
        rebuilt = sum((BPoly.monomial(i, j, v) for (i, j), v in f.terms.items()), ZERO)
        for g in (rebuilt, f * c * (1 / c), (f * c - f * (c - 1)), BPoly(dict(f.terms))):
            assert g == f and hash(g) == hash(f)
            assert g._terms == f._terms and g._den == f._den

    def test_equal_values_built_differently(self):
        pairs = [
            (P("1/2*x") * 2, X),
            (P("1/3*x") + P("2/3*x"), X),
            (P("2/3*x + 2/3*y") * Fraction(3, 2), X + Y),
            (P("4*x^2 - 2*y").derivative("y"), BPoly.constant(-2)),
            (BPoly({(0, 0): Fraction(6, 4)}), BPoly.constant(Fraction(3, 2))),
            (P("x + 1/2") - P("x"), BPoly.constant(Fraction(1, 2))),
        ]
        for got, want in pairs:
            assert got == want and hash(got) == hash(want)


class TestArithmetic:
    def test_add_cancellation(self):
        assert P("3/2*x*y") - P("x*y") == BPoly({(1, 1): Fraction(1, 2)})

    def test_mul(self):
        assert (X + Y) * (X - Y) == P("x^2 - y^2")

    def test_pow(self):
        assert (X + Y) ** 3 == P("x^3 + 3*x^2*y + 3*x*y^2 + y^3")

    def test_scalar(self):
        assert 2 * X == P("2*x") and X * Fraction(1, 2) == P("1/2*x")

    def test_zero_power(self):
        assert ZERO**0 == ONE and ZERO**3 == ZERO
        with pytest.raises(ValueError):
            X**-1

    @given(st.one_of(small_polys, wide_polys), st.integers(0, 8))
    def test_power_is_the_repeated_product(self, f, n):
        """The parser's power and ``BPoly``'s share ``pow_terms``; both
        equal the product of n factors f."""
        expected = ONE
        for _ in range(n):
            expected = expected * f
        assert f**n == expected
        assert P(f"({f.render()})^{n}") == expected

    def test_neg(self):
        assert -(X - Y) == Y - X


class TestPowTerms:
    @pytest.mark.parametrize("k, a", [
        pytest.param(2, {}, id="zero-2"),
        pytest.param(2, {(2, 1): -3}, id="monomial-2"),
        pytest.param(2, {(1, 0): 2, (0, 3): -5}, id="binomial-2"),
        pytest.param(2, {(0, 0): 1, (1, 0): 1, (0, 1): -2}, id="trinomial-2"),
        pytest.param(3, {}, id="zero-3"),
        pytest.param(3, {(0, 2, 1): 7}, id="monomial-3"),
        pytest.param(3, {(1, 0, 0): 1, (0, 1, 1): -1}, id="binomial-3"),
        pytest.param(3, {(1, 0, 0): 3, (0, 1, 0): 1, (0, 0, 2): -4}, id="trinomial-3"),
    ])
    def test_matches_repeated_products(self, k, a):
        """On k-variable keys; n = 0 gives 1, on the zero base too."""
        one = {(0,) * k: 1}
        expected = one
        for n in range(13):
            assert pow_terms(a, n, one) == expected, n
            expected = mul_terms(expected, a)


class TestDegreesAndParts:
    def test_degree(self):
        assert P("x^2 + y^3").degree == 3
        assert ZERO.degree is NEG_INF

    def test_multiplicity(self):
        assert P("x^2 + y^3").multiplicity() == 2
        assert P("x^3*y + y^5").multiplicity() == 4
        assert ZERO.multiplicity() is INF

    def test_multiplicity_additive(self):
        f, g = P("x^2 + y^3"), P("x*y + y^3")
        assert (f * g).multiplicity() == f.multiplicity() + g.multiplicity()


class TestWeightedOrder:
    """The least-weight face reader behind the blowup loop's tangent cones
    and the weighted lct bound's leading part."""

    @staticmethod
    def faces(f, w):
        terms = f._terms
        return [_face(terms, hull, *w) for hull in (None, _newton_boundary(terms))]

    def test_e6_weights(self):
        f = P("x^3 + y^4")
        assert _newton_boundary(f._terms) == [(0, 4), (3, 0)]
        for wt, face in self.faces(f, (4, 3)):
            assert wt == 12 and sorted(face) == [(0, 4), (3, 0)]

    def test_t236_weights(self):
        # x^2*y^2 lies inside the edge from y^6 to x^3: no vertex, but on the face
        f = P("x^2*y^2 + x^3 + y^6")
        assert _newton_boundary(f._terms) == [(0, 6), (3, 0)]
        for wt, face in self.faces(f, (2, 1)):
            assert wt == 6 and sorted(face) == sorted(f._terms)


class TestCoordinateChanges:
    def test_translate(self):
        assert P("y - x^2").translate((1, 1)) == P("y - 2*x - x^2")
        assert P("x*y").translate((0, 0)) == P("x*y")
        assert P("x^2").translate((-1, 0)) == P("(x-1)^2")

    def test_translate_round_trip(self):
        f = P("x^3 - 2*x*y + y^2 - 5")
        p = (Fraction(2, 3), Fraction(-1, 2))
        assert f.translate(p).translate((-p[0], -p[1])) == f

    @given(sparse_polys, shifts)
    def test_translate_matches_substitution(self, f, p):
        shifted = f.translate(p)
        assert shifted._terms == _substituted(f, p)._terms
        assert shifted.translate((-p[0], -p[1])) == f
        assert ZERO.translate(p) == ZERO

    def test_translate_high_degree_monomial(self):
        f = P("x^40*y^40 + x + y")
        p = (Fraction(1, 2), Fraction(-3, 7))
        assert f.translate(p)._terms == _substituted(f, p)._terms

    def test_translate_dense_columns(self):
        f = P("(x - 2*y + 1/3)^9 + x*y^7")
        p = (Fraction(-5, 2), Fraction(4, 3))
        shifted = f.translate(p)
        assert shifted._terms == _substituted(f, p)._terms
        assert shifted.translate((-p[0], -p[1])) == f

    # no shrink phase: shrinking 130-entry columns against the substitution
    # reference takes minutes, so a failure reports the example as drawn
    @settings(max_examples=20, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(dense_polys, _dense_shifts, st.one_of(st.just(Fraction(0)), _dense_shifts))
    def test_translate_dense_matches_substitution(self, f, p, other):
        assert 16 < _PREFIX_SUM_DEGREE <= 130
        for point in ((other, p), (p, other)):
            shifted = f.translate(point)
            expected = _substituted(f, point)
            assert (shifted._terms, shifted._den) == (expected._terms, expected._den)

    def test_translate_near_cap_chain_and_back(self):
        # the long y-columns of the moved germ are shifted back by running sums
        f = P("x^2 + y^112 + 3/2*x*y^111 - x*y^93")
        moved = f.translate((1, -1))
        expected = _substituted(f, (1, -1))
        assert (moved._terms, moved._den) == (expected._terms, expected._den)
        back = moved.translate((-1, 1))
        expected = _substituted(moved, (-1, 1))
        assert (back._terms, back._den) == (expected._terms, expected._den)
        assert (back._terms, back._den) == (f._terms, f._den)

    def test_translate_ak_chain(self):
        f = P("x^2 + y^121 + 3*x*y^40")
        p = (Fraction(1, 2), Fraction(3))
        shifted = f.translate(p)
        assert shifted._terms == _substituted(f, p)._terms
        assert shifted.translate((-p[0], -p[1])) == f


class TestDivision:
    def test_exact(self):
        assert _quotient(P("x^3 + x*y^3"), X) == P("x^2 + y^3")
        assert _quotient(ZERO, X) == ZERO
        assert _quotient(P("1/2*x + 1/3"), P("6*x + 4")) == BPoly.constant(Fraction(1, 12))

    def test_not_divisible(self):
        assert _quotient(P("x^2 + y^2"), X) is None
        assert not divides(X, P("x^2 + y^2"))

    def test_divisor_zero(self):
        with pytest.raises(DivisorZero):
            _quotient(X, ZERO)
        with pytest.raises(DivisorZero):
            divides(ZERO, X)

    def test_divides(self):
        assert divides(X, P("x^3 + x*y^3"))
        assert not divides(Y, P("x^3 + x*y^3"))
        # the first step's leading coefficient 1 is not a multiple of 2
        assert not divides(P("2*x + 1"), P("x + 1"))

    def test_divides_renders_no_message(self, monkeypatch):
        f, g = P("x^3 + x*y^3"), P("x + 1")

        def render(self):
            raise AssertionError("divides rendered a polynomial")

        monkeypatch.setattr(BPoly, "render", render)
        assert not divides(g, f) and not divides(Y, f)

    @given(
        st.one_of(sparse_polys, wide_polys),
        st.one_of(small_polys, wide_polys, factors).filter(bool),
    )
    def test_product_divides_back(self, f, g):
        assert _quotient(f * g, g) == f
        if not g.is_constant():
            assert not divides(g, f * g + 1)


class TestGcd:
    def test_monomials(self):
        assert gcd_bivariate(P("x^2*y"), P("x*y^2")) == P("x*y")

    def test_coprime(self):
        assert gcd_bivariate(P("x^2 + y^2"), X).is_constant()
        assert gcd_many([X * Y, X, Y]) == ONE  # returns once the gcd is constant

    def test_common_linear(self):
        f = P("(x+y)^2") * P("x - y")
        g = P("x+y") * Y
        assert gcd_bivariate(f, g) == P("x + y")

    def test_divides_both(self):
        f, g = P("(x^2+y^3)*(x - 2*y)"), P("(x^2+y^3)*(y + 1)")
        d = gcd_bivariate(f, g)
        assert divides(d, f) and divides(d, g)

    def test_both_zero(self):
        with pytest.raises(BothZero):
            gcd_bivariate(ZERO, ZERO)

    def test_normalized_results(self):
        assert gcd_bivariate(P("y*(x+1)"), P("y*(x-1)")) == Y
        f = P("(3/4*x + 1/2*y)*(x - y^2)")
        g = P("(-3/2*x - y)*(y + 1/5)")
        assert gcd_bivariate(f, g) == P("3*x + 2*y")
        assert gcd_bivariate(ZERO, P("-2*x*y")) == P("x*y")
        assert gcd_bivariate(BPoly.constant(3), X) == ONE

    @given(small_polys, small_polys, small_polys)
    def test_random_products(self, a, b, c):
        ac, bc = a * c, b * c
        d = gcd_bivariate(ac, bc)
        assert divides(c, d)
        cofactors = _quotient(ac, d), _quotient(bc, d)
        assert gcd_bivariate(*cofactors).is_constant()
        assert normalize_primitive(d) == (1, d)

    @given(wide_polys, wide_polys, wide_polys)
    def test_matches_sympy_qq_gcd(self, a, b, c):
        pairs = [(a * c, b * c), (ZERO, b * c), (a, b)]
        for f, g in pairs:
            if not (f.is_zero and g.is_zero):
                assert gcd_bivariate(f, g) == _sympy_gcd(f, g)


class TestCertificates:
    """A certificate may say "undecided" (False) on anything; it must never
    say True when a factor is shared or repeated."""

    def test_decides_typical_germs(self):
        for text in ("x^2 + y^3", "x^3 + y^7 + x*y^5", "y*(x + 1)", "(y + 1)*(x^2 + y)", "y"):
            assert certify_squarefree(P(text))
        assert certify_coprime(P("3*x^2"), P("2*y"))
        assert certify_coprime(P("x - y"), P("99*y^32 - x + y"))
        assert certify_coprime(BPoly.constant(5), P("x^2"))

    def test_refuses_repeated_and_shared_factors(self):
        for text in ("y^2", "x^2*(y + 1)", "x*(y + 1)^2", "(x^2 + y^2)^2", "(x - y)^2*(x + y^3)"):
            assert not certify_squarefree(P(text))
        assert not certify_coprime(P("x*(y + 1)"), P("y^2 + y"))
        assert not certify_coprime(P("x^2 - y^3"), P("(x^2 - y^3)*(x + 2)"))
        # h is constant at x = 1, -1, 2: no restriction keeps the y-degree
        h = P("(x - 1)*(x + 1)*(x - 2)*y + 1")
        assert not certify_coprime(h * P("y + 5"), h * P("y + 7"))
        assert not certify_squarefree(h**2 * P("y + 5"))

    @pytest.mark.parametrize(
        "text",
        [
            "x^2 + y^3",
            "x^3 + y^7 + x*y^5",
            "(y + 1)*(x^2 + y)",
            # x times this germ is undecided unless x is divided out first
            "x^2*y^3 - 1/2*x*y^4 + 3*x^4 + x^3 - 8/3*x^2*y - 11/9*x*y^2 + 2/3*y^3",
        ],
    )
    def test_monomial_factor_is_divided_out(self, text):
        g = P(text)
        assert certify_squarefree(P("x") * g) and certify_squarefree(P("y") * g)
        assert certify_squarefree(P("x*y") * g)
        assert not certify_squarefree(P("x^2") * g) and not certify_squarefree(P("y^2") * g)

    def test_univariate_point_is_large_enough(self):
        # x - m divides both; its value at a point much below 4m is small
        for m in range(-40, 41):
            line = [-m, 1]
            assert not coprime_univariate(line, line)
            assert not coprime_univariate(line, _int_product(line, [m + 1, 1]))

    @given(small_polys, factors)
    def test_never_certifies_a_square(self, a, b):
        assert not certify_squarefree(a * b**2)

    @given(small_polys, small_polys, factors)
    def test_never_certifies_a_common_factor(self, a, b, c):
        assert not certify_coprime(a * c, b * c)

    @given(int_lists, int_lists, int_lists.filter(lambda c: len(c) >= 2))
    def test_univariate_never_certifies_a_common_factor(self, a, b, c):
        assert not coprime_univariate(_int_product(a, c), _int_product(b, c))

    @given(st.one_of(small_polys, sparse_polys, wide_polys), st.one_of(small_polys, sparse_polys))
    def test_true_agrees_with_sympy(self, f, g):
        if f.is_zero or g.is_zero:
            return
        if certify_squarefree(f):
            assert _sympy_gcd(_sympy_gcd(f, f.derivative("x")), f.derivative("y")).is_constant()
        if certify_coprime(f, g):
            assert _sympy_gcd(f, g).is_constant()


class TestRender:
    def test_round_trip(self):
        for text in ("x^2 + y^3", "3/2*x*y - 7", "-x + y^5 - 1/3", "0"):
            f = P(text)
            assert parse_poly(f.render()) == f

