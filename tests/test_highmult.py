"""Unit tests for the multiplicity-(d-1) closed-form lct analysis."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from lctplane.errors import (
    DegreeOutOfRange,
    DegreeTooSmall,
    NotInLambdaSet,
    NotSquareFree,
    NotThroughOrigin,
    TargetNotRealizable,
    WrongMultiplicity,
)
from lctplane.highmult import (
    _line_divides,
    analyze_high_mult,
    construct_witness,
    lambda_set,
    reducibility_hint,
)
from lctplane.dispatch import lct
from lctplane.localinv import is_square_free, newton_lct
from lctplane.parse import MAX_EXPONENT, parse_poly as P
from lctplane.poly import BPoly, X, Y, divides
from lctplane.resolution import lct_from_tree, resolve_over_origin

# The factors a tangent cone is drawn from: rational lines, and quadratics
# irreducible over the rationals.
_LINES = (X, Y, X - Y, X + Y, X - 2 * Y, 2 * X + 3 * Y)
_QUADRATICS = (X**2 - 2 * Y**2, X**2 + Y**2, X**2 + X * Y + Y**2)


@st.composite
def _high_mult_part(draw, e, line):
    """A germ of degree e and multiplicity e - 1 (e >= 2): a cone of degree
    e - 1, ``line`` to a drawn power times further lines and quadratics,
    plus a form of degree e with small integer coefficients."""
    cone = line ** draw(st.integers(0, e - 1))
    for _ in range(draw(st.integers(0, (e - 1 - cone.degree) // 2))):
        cone *= draw(st.sampled_from(_QUADRATICS))
    while cone.degree < e - 1:
        cone *= draw(st.sampled_from(_LINES))
    top = BPoly({(i, e - i): draw(st.integers(-3, 3)) for i in range(e + 1)})
    return draw(st.integers(1, 3)) * cone + top


@st.composite
def high_mult_germs(draw):
    """A degree-d germ of multiplicity d - 1, d = 3..8, often with a special
    line L (a cone factor of multiplicity above (d - 1) / 2); half of them
    L times such a germ of degree d - 1, so that L is a component."""
    d = draw(st.integers(3, 8))
    line = draw(st.sampled_from(_LINES))
    if draw(st.booleans()):
        return line * draw(_high_mult_part(d - 1, line))
    return draw(_high_mult_part(d, line))


class TestAnalyzeHighMult:
    def test_e6_non_component(self):
        a = analyze_high_mult(P("y^3 + x^4"))
        assert a.lct == Fraction(7, 12)
        assert a.has_special_q and a.m == 3 and not a.line_is_component
        assert a.k_q == 3

    def test_e7_component(self):
        a = analyze_high_mult(P("y^3 + x^3*y"))
        assert a.lct == Fraction(5, 9)
        assert a.line_is_component and a.k_q == 2 and a.m == 3

    @pytest.mark.parametrize(
        "text, line",
        [
            ("(x - 2*y)^3 + x^4 + y^4", X - 2 * Y),
            ("(2*x + y)^3 + y^4", 2 * X + Y),
            ("y^3 + x^4", Y),
            ("x^3 + y^4", X),
            ("x*(x - 3*y)^2 + y^4", X - 3 * Y),
        ],
    )
    def test_special_line_sign(self, text, line):
        # the primitive line, its first nonzero coefficient positive
        assert analyze_high_mult(P(text)).line == line

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            st.integers(-5, 5).filter(bool),
            min_size=1,
            max_size=8,
        ),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
        st.booleans(),
    )
    def test_line_component_by_restriction(self, terms, q, times_line):
        # the restriction test agrees with long division, on multiples of
        # the line and on polynomials that are mostly not
        line = BPoly({(1, 0): q[0], (0, 1): q[1]})
        f = BPoly(terms) * line if times_line else BPoly(terms)
        assert _line_divides(*q, f._terms) == divides(line, f)

    @given(high_mult_germs())
    def test_agrees_with_newton(self, f):
        # two independent proofs: the paper's closed form and the Newton
        # polygon in adapted coordinates; lct takes the closed form
        assume(f.degree == f.multiplicity() + 1 and is_square_free(f))
        assert analyze_high_mult(f).lct == newton_lct(f)
        assert lct(f).method == "highmult"

    def test_d4_no_special(self):
        a = analyze_high_mult(P("x*y*(x - y) + x^4"))
        assert not a.has_special_q
        assert a.lct == Fraction(2, 3)

    def test_w12(self):
        a = analyze_high_mult(P("y^4 + x^5"))
        assert a.lct == Fraction(9, 20)
        assert a.m == 4 and not a.line_is_component

    def test_lct_in_lambda_set(self):
        for text in ("y^3 + x^4", "y^3 + x^3*y", "x*y*(x-y) + x^4", "y^4 + x^5"):
            f = P(text)
            assert analyze_high_mult(f).lct in lambda_set(f.degree)

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            analyze_high_mult(P("x*y"))

    def test_wrong_multiplicity(self):
        with pytest.raises(WrongMultiplicity):
            analyze_high_mult(P("x + y^4"))

    def test_not_square_free(self):
        with pytest.raises(NotSquareFree):
            analyze_high_mult(P("y^2*(y + x^2)"))

    def test_not_through_origin(self):
        with pytest.raises(NotThroughOrigin) as caught:
            analyze_high_mult(P("1 + x^3"))
        assert caught.type is NotThroughOrigin
        assert caught.value.args == ("curve does not pass through the origin",)

    def test_scalar_invariance(self):
        f = P("y^3 + x^4")
        assert analyze_high_mult(3 * f).lct == analyze_high_mult(f).lct

    def test_linear_change_invariance(self):
        f = P("y^3 + x^4")
        g = f.substitute(X + Y, Y)
        assert analyze_high_mult(g).lct == analyze_high_mult(f).lct


class TestLambdaSet:
    def test_d3(self):
        assert lambda_set(3) == (Fraction(3, 4), Fraction(5, 6), Fraction(1))

    def test_d4(self):
        assert lambda_set(4) == (
            Fraction(5, 9),
            Fraction(7, 12),
            Fraction(3, 5),
            Fraction(5, 8),
            Fraction(2, 3),
        )

    def test_d5(self):
        assert lambda_set(5) == (
            Fraction(7, 16),
            Fraction(9, 20),
            Fraction(5, 11),
            Fraction(7, 15),
            Fraction(1, 2),
        )

    def test_sorted_ascending(self):
        for d in range(3, 9):
            values = lambda_set(d)
            assert list(values) == sorted(values)

    def test_families_disjoint(self):
        # both Corollary families plus 2/(d-1), no collisions
        for d in range(3, 9):
            expected = 1 + (d - 2 - (d - 1) // 2 + 1) + (d - 1 - (d + 1) // 2 + 1)
            assert len(lambda_set(d)) == expected

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            lambda_set(2)

    def test_degree_limit(self):
        d = MAX_EXPONENT
        values = lambda_set(d)
        assert len(values) == 1 + (d - 2 - (d - 1) // 2 + 1) + (d - 1 - (d + 1) // 2 + 1)
        with pytest.raises(DegreeOutOfRange, match="degree limit"):
            lambda_set(d + 1)


class TestReducibilityHint:
    def test_component_family(self):
        assert reducibility_hint(Fraction(5, 9), 4) is True

    def test_non_component_family(self):
        assert reducibility_hint(Fraction(7, 12), 4) is False

    def test_generic_value(self):
        assert reducibility_hint(Fraction(2, 3), 4) is False

    def test_not_in_set(self):
        with pytest.raises(NotInLambdaSet):
            reducibility_hint(Fraction(1, 7), 4)


class TestConstructWitness:
    def test_e6_target(self):
        f = construct_witness(4, Fraction(7, 12))
        assert analyze_high_mult(f).lct == Fraction(7, 12)

    def test_e7_target(self):
        f = construct_witness(4, Fraction(5, 9))
        assert analyze_high_mult(f).lct == Fraction(5, 9)
        assert analyze_high_mult(f).line_is_component

    def test_generic_target(self):
        f = construct_witness(4, Fraction(2, 3))
        assert analyze_high_mult(f).lct == Fraction(2, 3)

    def test_all_targets_all_degrees(self):
        for d in range(3, 8):
            for target in lambda_set(d):
                f = construct_witness(d, target)
                assert f.degree == d
                assert f.multiplicity() == d - 1
                assert is_square_free(f)
                assert analyze_high_mult(f).lct == target
                assert lct_from_tree(resolve_over_origin(f)) == target

    def test_degree_6_family_rendered(self):
        # one curve per value: x*g or g with g = y^e + sum x^i y^(e-1-i),
        # and the product of five distinct lines plus y^6 for 2/5
        rendered = {str(t): construct_witness(6, t).render() for t in lambda_set(6)}
        assert rendered == {
            "9/25": "x*y^5 + x^5",
            "11/30": "y^6 + x^5",
            "7/19": "x*y^5 + x^5 + x^4*y",
            "3/8": "y^6 + x^5 + x^4*y",
            "5/13": "x*y^5 + x^5 + x^4*y + x^3*y^2",
            "7/18": "y^6 + x^5 + x^4*y + x^3*y^2",
            "2/5": "y^6 + x^5 - 10*x^4*y + 35*x^3*y^2 - 50*x^2*y^3 + 24*x*y^4",
        }

    def test_unrealizable(self):
        with pytest.raises(TargetNotRealizable):
            construct_witness(4, Fraction(1, 7))
