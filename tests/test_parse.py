"""Unit tests for the polynomial text grammar."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from lctplane.cli import main
from lctplane.errors import ExponentTooLarge, NonPolynomial, ParseError, TooManyTerms
from lctplane.parse import (
    MAX_EXPONENT,
    MAX_TERMS,
    _Parser,
    parse_poly,
    parse_rational,
    parse_terms,
)
from lctplane.poly import BPoly

HOSTILE = ("x^2+y^999999999", f"y^{MAX_EXPONENT + 1}", "(x^40)^40", "(x - x)^5000")
# Each expands to more than MAX_TERMS terms (the last to 101^2).
DENSE = ("(1+x+y)^1000", "((1+x+y)^30)^30", "(x*y+x+y)^200*x", "(1+x)^100*(1+y)^100")


@pytest.fixture
def no_huge_powers(monkeypatch):
    """Fail at once, instead of expanding, if a power above the limit gets
    past the parser's check."""
    expand = _Parser._pow

    def guarded(self, base, n):
        assert n <= MAX_EXPONENT, f"power ^{n} reached expansion"
        return expand(self, base, n)

    monkeypatch.setattr(_Parser, "_pow", guarded)


@pytest.fixture
def no_huge_products(monkeypatch):
    """Fail at once, instead of expanding, if one product of more than
    MAX_TERMS coefficient pairs gets past the parser's check."""
    multiply = _Parser._mul

    def guarded(self, a, b):
        assert len(a) * len(b) <= MAX_TERMS, f"{len(a)} x {len(b)} terms reached expansion"
        return multiply(self, a, b)

    monkeypatch.setattr(_Parser, "_mul", guarded)


class TestGrammar:
    def test_literal(self):
        assert parse_poly("x^2 + y^3").terms == {
            (2, 0): Fraction(1),
            (0, 3): Fraction(1),
        }

    def test_like_term_cancellation(self):
        assert parse_poly("3/2*x*y - x*y").terms == {(1, 1): Fraction(1, 2)}

    def test_rational_coefficients(self):
        assert parse_poly("2/3*x - 1/3*x").terms == {(1, 0): Fraction(1, 3)}

    def test_parentheses_and_powers(self):
        assert parse_poly("(x + y)^2") == parse_poly("x^2 + 2*x*y + y^2")
        base = parse_poly("x - 2*y + 1/3")
        for n in (0, 1, 4, 5):
            assert parse_poly(f"(x - 2*y + 1/3)^{n}") == base**n
        assert parse_poly("(-2/3*x^2*y)^3") == BPoly.monomial(6, 3, Fraction(-8, 27))
        assert parse_poly("(x^40)^0") == BPoly.constant(1)

    def test_leading_sign(self):
        assert parse_poly("-x + y") == parse_poly("y") - parse_poly("x")

    def test_whitespace_insignificant(self):
        assert parse_poly(" x ^ 2+y^3 ") == parse_poly("x^2+y^3")

    def test_zero(self):
        assert parse_poly("0").is_zero

    def test_constant(self):
        assert parse_poly("7/3").terms == {(0, 0): Fraction(7, 3)}


class TestErrors:
    def test_negative_exponent(self):
        with pytest.raises(NonPolynomial):
            parse_poly("x^(-1)")

    def test_division_by_variable(self):
        with pytest.raises(NonPolynomial):
            parse_poly("1/x")

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("2x")

    def test_unknown_character(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("x + @")
        assert exc.value.position is not None

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_poly("(x + y")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_poly("")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_poly("x + z")

    def test_exponent_limit(self, no_huge_powers):
        assert parse_poly(f"y^{MAX_EXPONENT}") == BPoly.monomial(0, MAX_EXPONENT)
        for text in HOSTILE:
            with pytest.raises(ExponentTooLarge):
                parse_poly(text)

    def test_exponent_limit_exit_code(self, no_huge_powers, capsys):
        for text in HOSTILE:
            assert main(["lct", text]) == 3
            assert "exponent limit" in capsys.readouterr().err


    def test_term_limit(self, no_huge_products):
        square = parse_poly("(1+x)^99*(1+y)^99")  # exactly MAX_TERMS terms
        assert len(square.terms) == MAX_TERMS
        for text in DENSE:
            with pytest.raises(TooManyTerms):
                parse_poly(text)
        with pytest.raises(TooManyTerms):
            parse_terms("(x+y+z+1)^40", ("x", "y", "z"))

    def test_term_limit_exit_code(self, no_huge_products, capsys):
        for text in DENSE:
            assert main(["lct", text]) == 3
            assert "term limit" in capsys.readouterr().err


# (input, exception class, message, position); the message ends in the position.
ERROR_CONTRACT = [
    ("x + @", ParseError, "unexpected character '@'", 4),
    ("  x  $", ParseError, "unexpected character '$'", 5),
    ("2x", ParseError, "implicit multiplication by juxtaposition is not allowed", 1),
    ("x y", ParseError, "implicit multiplication by juxtaposition is not allowed", 2),
    ("(x)(y)", ParseError, "implicit multiplication by juxtaposition is not allowed", 3),
    ("(x + y", ParseError, "expected ')'", 6),
    ("x)", ParseError, "unexpected trailing input ')'", 1),
    ("", ParseError, "expected variable, rational or parenthesized expression", 0),
    ("   ", ParseError, "expected variable, rational or parenthesized expression", 3),
    ("x + z", ParseError, "unknown variable 'z', expected one of x/y", 4),
    ("x^(-1)", NonPolynomial, "negative exponent", 3),
    ("1/x", NonPolynomial, "division by a variable", 2),
    ("x/2", NonPolynomial, "division is only allowed inside rational literals", 1),
    ("3/0", ParseError, "zero denominator", 2),
    ("3/-2", ParseError, "expected positive integer denominator", 2),
    ("x^", ParseError, "expected nonnegative integer exponent", 2),
    ("x^y", ParseError, "expected nonnegative integer exponent", 2),
    ("x^(-)", ParseError, "expected integer exponent", 4),
    ("x^2^3", ParseError, "unexpected trailing input '^'", 3),
    ("1/2/3", NonPolynomial, "division is only allowed inside rational literals", 3),
    ("x**2", ParseError, "expected variable, rational or parenthesized expression", 2),
    ("- - x", ParseError, "expected variable, rational or parenthesized expression", 2),
]


@pytest.mark.parametrize("text, cls, message, position", ERROR_CONTRACT)
def test_error_contract(text, cls, message, position):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert type(exc.value) is cls
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def expressions(names):
    """Products of sums of random expression trees over rationals and
    ``names``, with +, -, *, negation and powers up to 3, each drawn as
    (text, the same expression built with sympy ``Poly`` arithmetic)."""
    gens = sympy.symbols(names)

    def poly(expr):
        return sympy.Poly(expr, *gens, domain="QQ")

    def rational(q):
        text = str(abs(q)) if q >= 0 else f"(-{abs(q)})"
        return text, poly(sympy.Rational(q.numerator, q.denominator))

    leaves = st.one_of(
        st.fractions(min_value=-7, max_value=7, max_denominator=5).map(rational),
        st.sampled_from([(name, poly(g)) for name, g in zip(names, gens)]),
    )

    def extend(children):
        def binary(op, combine):
            return st.tuples(children, children).map(
                lambda ab: (f"({ab[0][0]} {op} {ab[1][0]})", combine(ab[0][1], ab[1][1]))
            )

        return st.one_of(
            binary("+", lambda a, b: a + b),
            binary("-", lambda a, b: a - b),
            st.tuples(children, children).map(lambda ab: (f"{ab[0][0]}*{ab[1][0]}", ab[0][1] * ab[1][1])),
            st.tuples(children, st.integers(0, 3)).map(lambda an: (f"({an[0][0]})^{an[1]}", an[0][1] ** an[1])),
            children.map(lambda a: (f"(-{a[0]})", -a[1])),
        )

    def flat_sum(parts):  # one ``expr`` with several signed summands
        text = " ".join(f"{sign} {t}" for sign, (t, _) in parts)
        return text, sum((p if sign == "+" else -p for sign, (_, p) in parts), poly(0))

    def product(factors):
        return "*".join(f"({t})" for t, _ in factors), math.prod((p for _, p in factors), start=poly(1))

    trees = st.recursive(leaves, extend, max_leaves=10)
    sums = st.lists(st.tuples(st.sampled_from("+-"), trees), min_size=1, max_size=5).map(flat_sum)
    return st.lists(sums, min_size=1, max_size=3).map(product)


def sympy_terms(p):
    return {exp: Fraction(int(c.p), int(c.q)) for exp, c in p.as_dict().items()}


class TestAgainstSympy:
    @settings(derandomize=True, deadline=None)
    @given(expressions(("x", "y")))
    def test_parse_poly(self, drawn):
        text, expected = drawn
        terms = parse_poly(text).terms
        assert terms == sympy_terms(expected)
        assert all(type(c) is Fraction for c in terms.values())

    @settings(derandomize=True, deadline=None)
    @given(expressions(("x", "y", "z")))
    def test_parse_terms_three_variables(self, drawn):
        text, expected = drawn
        assert parse_terms(text, ("x", "y", "z")) == sympy_terms(expected)


class TestHelpers:
    def test_parse_rational(self):
        assert parse_rational("5/9") == Fraction(5, 9)
        assert parse_rational("-3") == Fraction(-3)
        with pytest.raises(ParseError):
            parse_rational("x")

    def test_parse_terms_three_variables(self):
        terms = parse_terms("x*y*z + 2*z^3", ("x", "y", "z"))
        assert terms == {(1, 1, 1): Fraction(1), (0, 0, 3): Fraction(2)}

    def test_round_trip_render(self):
        f = parse_poly("x^4 - 3/7*x*y^2 + y - 5")
        assert parse_poly(f.render()) == f
        assert isinstance(f, BPoly)
