"""Unit tests for the library's lct dispatcher."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lctplane import LctResult, lct
from lctplane.errors import IrrationalCenter, NotSquareFree, ZeroPolynomial
from lctplane.extended import INF
from lctplane.localinv import is_square_free
from lctplane.parse import parse_poly as P
from lctplane.poly import ONE, BPoly, X, Y
from lctplane.resolution import lct_from_tree, resolve_over_origin

# Germs singular at the origin: two to six terms, each of total degree 2..5.
singular_germs = st.dictionaries(
    st.sampled_from([(i, d - i) for d in range(2, 6) for i in range(d + 1)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    min_size=2,
    max_size=6,
).map(BPoly)

_coeff = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def _branch(draw):
    """``(y - phi(x))^p - c x^q`` with phi(0) = 0 and deg phi <= 3, perhaps
    plus a term ``x^a (y - phi)^b`` with b < p: degree at most 14."""
    u = Y - sum((draw(_coeff) * X**k for k in (1, 2, 3)), start=BPoly.zero())
    p = draw(st.integers(1, 4))
    f = u**p - draw(_coeff.filter(bool)) * X ** draw(st.integers(1, 12))
    if p > 1 and draw(st.booleans()):
        a, b = draw(st.integers(1, 5)), draw(st.integers(0, p - 1))
        f += draw(_coeff.filter(bool)) * X**a * u**b
    return f


@st.composite
def branch_products(draw):
    """Products of one to three branches, each kept while the degree stays
    at most 14, perhaps with x and y swapped.  Their germs share tangents
    and Puiseux terms, so many need changes of coordinates to be adapted."""
    f = ONE
    for branch in draw(st.lists(_branch(), min_size=1, max_size=3)):
        if f.degree + branch.degree <= 14:
            f *= branch
    return f.substitute(Y, X) if draw(st.booleans()) else f


class TestRoutes:
    @pytest.mark.parametrize(
        "text, point, expected",
        [
            ("x^2+y^3", (7, 5), LctResult(INF, "trivial")),
            ("y - x^2", (0, 0), LctResult(Fraction(1), "trivial")),
            ("x^2+y^3", (0, 0), LctResult(Fraction(5, 6), "highmult")),
            ("y^4+x^5", (0, 0), LctResult(Fraction(9, 20), "highmult")),
            ("(x-1)^2 + (y-2)^3", (1, 2), LctResult(Fraction(5, 6), "highmult")),
            # Newton non-degenerate: read off the boundary, at any degree
            ("x^2 + y^5", (0, 0), LctResult(Fraction(7, 10), "newton")),
            ("x^2 + y^6 + x*y^4", (0, 0), LctResult(Fraction(2, 3), "newton")),
            ("x*(y^2 - x^5)", (0, 0), LctResult(Fraction(7, 12), "newton")),
            ("x^2 + y^201", (0, 0), LctResult(Fraction(203, 402), "newton")),
            # a square on the edge (x - y)^2: one change of coordinates
            ("(x-y)^2 + y^5", (0, 0), LctResult(Fraction(7, 10), "newton")),
            ("(x-y)^2 + y^7", (0, 0), LctResult(Fraction(9, 14), "newton")),
        ],
    )
    def test_method_table(self, text, point, expected):
        assert lct(P(text).translate(point)) == expected

    def test_zero(self):
        with pytest.raises(ZeroPolynomial, match="curve is the zero polynomial"):
            lct(BPoly.zero())

    @pytest.mark.parametrize(
        "text",
        [
            "x^2 + x^2*y",  # degree 3, multiplicity 2: the closed form
            "x^4 + 2*x^2*y^2 + y^4",  # degree 4, multiplicity 4: the Newton route
            "x^2 + x^2*y^5",  # degree 7, multiplicity 2: the Newton route
        ],
    )
    def test_non_reduced_singular_point(self, text):
        with pytest.raises(NotSquareFree):
            lct(P(text))

    @settings(max_examples=300)
    @given(singular_germs)
    def test_agrees_with_oracle(self, f):
        assume(is_square_free(f))
        try:
            tree = resolve_over_origin(f)
        except IrrationalCenter:
            assume(False)
        assert lct(f).value == lct_from_tree(tree)

    @settings(max_examples=300)
    @given(branch_products())
    def test_branch_products_agree_with_oracle(self, f):
        assume(f.multiplicity() > 1 and is_square_free(f))  # a lone p = 1 branch is smooth
        try:
            tree = resolve_over_origin(f)
        except IrrationalCenter:
            assume(False)
        assert lct(f).value == lct_from_tree(tree)


class TestLctLowDegree:
    """``lct`` at a rational point p of a low-degree curve, as
    ``lct(f.translate(p))``: the off-curve and smooth answers hold for any
    curve, so a non-reduced one gets them too."""

    def test_non_reduced_off_curve(self):
        assert lct(P("x^2 + x^2*y").translate((5, 5))) == (INF, "trivial")

    def test_non_reduced_smooth_point(self):
        assert lct(P("(x + y)*y^2").translate((1, -1))) == (1, "trivial")
