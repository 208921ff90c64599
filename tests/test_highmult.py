"""Unit tests for the multiplicity-(d-1) closed-form lct analysis."""

from fractions import Fraction

import pytest

from lctplane.errors import (
    DegreeOutOfRange,
    DegreeTooSmall,
    NotInLambdaSet,
    NotSquareFree,
    TargetNotRealizable,
    WrongMultiplicity,
)
from lctplane.highmult import (
    analyze_high_mult,
    construct_witness,
    lambda_set,
    reducibility_hint,
)
from lctplane.localinv import is_square_free
from lctplane.parse import MAX_EXPONENT, parse_poly as P


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

    def test_scalar_invariance(self):
        f = P("y^3 + x^4")
        assert analyze_high_mult(3 * f).lct == analyze_high_mult(f).lct

    def test_linear_change_invariance(self):
        f = P("y^3 + x^4")
        g = f.linear_change(((1, 1), (0, 1)))
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

    def test_unrealizable(self):
        with pytest.raises(TargetNotRealizable):
            construct_witness(4, Fraction(1, 7))
