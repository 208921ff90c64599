"""Unit tests for the polynomial text grammar."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from lctplane.cli import main
from lctplane.errors import (
    CoefficientTooLarge,
    ExponentTooLarge,
    LctError,
    NonPolynomial,
    ParseError,
    TooManyTerms,
)
from lctplane.parse import (
    MAX_COEFF_BITS,
    MAX_EXPONENT,
    MAX_TERMS,
    _grammar,
    _read_flat,
    coeff_bits,
    parse_poly,
    parse_rational,
    parse_terms,
)
from lctplane.poly import BPoly, mul_terms, pow_terms

HOSTILE = ("x^2+y^999999999", f"y^{MAX_EXPONENT + 1}", "(x^40)^40", "(x - x)^5000")
# Each expands to more than MAX_TERMS terms (the last to 101^2).
DENSE = ("(1+x+y)^1000", "((1+x+y)^30)^30", "(x*y+x+y)^200*x", "(1+x)^100*(1+y)^100")
# Each has a power charged more than MAX_COEFF_BITS bits: 66 * 993 = 65538
# for the second, (71 + 2) * 1000 for the third.
HUGE = ("((10^1000)^1000)^20*x+y^2", "(2^64)^993", "(2^70*x+y)^1000")


@pytest.fixture
def no_huge_powers(monkeypatch):
    """Fail at once, instead of expanding, if a power above the limit gets
    past the parser's check."""

    def guarded(base, n, one):
        assert n <= MAX_EXPONENT, f"power ^{n} reached expansion"
        return pow_terms(base, n, one)

    monkeypatch.setattr("lctplane.parse.pow_terms", guarded)


@pytest.fixture
def no_huge_products(monkeypatch):
    """Fail at once, instead of expanding, if one product of more than
    MAX_TERMS coefficient pairs gets past the parser's check."""

    def guarded(a, b):
        assert len(a) * len(b) <= MAX_TERMS, f"{len(a)} x {len(b)} terms reached expansion"
        return mul_terms(a, b)

    monkeypatch.setattr("lctplane.parse.mul_terms", guarded)


@pytest.fixture
def no_huge_coefficients(monkeypatch):
    """Fail at once, instead of expanding, if a power charged more than
    MAX_COEFF_BITS coefficient bits gets past the parser's check (the
    texts it guards have integer coefficients, so the numerators are the
    coefficients)."""

    def guarded(base, n, one):
        bits = n * (coeff_bits(base.values()) + len(base).bit_length())
        assert bits <= MAX_COEFF_BITS, f"power of {bits} bits reached expansion"
        return pow_terms(base, n, one)

    monkeypatch.setattr("lctplane.parse.pow_terms", guarded)


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
        assert parse_poly("x^(3)+y^(2)") == parse_poly("x^3+y^2")

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

    def test_coefficient_limit(self, no_huge_coefficients):
        assert parse_poly("(2^64)^992") == BPoly.constant(2 ** (64 * 992))
        for text in HUGE:
            with pytest.raises(CoefficientTooLarge):
                parse_poly(text)

    def test_coefficient_limit_exit_code(self, no_huge_coefficients, capsys):
        for text in HUGE:
            assert main(["lct", text]) == 3
            assert "coefficient limit" in capsys.readouterr().err


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
    ("x^-1", NonPolynomial, "negative exponent", 2),
    ("2*x^-3", NonPolynomial, "negative exponent", 4),
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
    # inside a monomial and at its edges
    ("2*x^3^2", ParseError, "unexpected trailing input '^'", 5),
    ("3/0*x", ParseError, "zero denominator", 2),
    ("2*x/3", NonPolynomial, "division is only allowed inside rational literals", 3),
    ("x*y z", ParseError, "implicit multiplication by juxtaposition is not allowed", 4),
    ("x2*y", ParseError, "unknown variable 'x2', expected one of x/y", 0),
    ("x * y ^ 2 ^ 3", ParseError, "unexpected trailing input '^'", 10),
    # digits are ASCII only, as in ``parse_rational``
    ("x^\u0663+y^2", ParseError, "unexpected character '\u0663'", 2),
    ("\uff13*x^2+y^3", ParseError, "unexpected character '\uff13'", 0),
]


@pytest.mark.parametrize("text, cls, message, position", ERROR_CONTRACT)
def test_error_contract(text, cls, message, position):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert type(exc.value) is cls
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_overlong_integer_literal_is_a_parse_error(capsys):
    text = "x + 1" + "0" * 5000 + "*y"
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert type(exc.value) is ParseError
    assert str(exc.value) == "integer literal too long (5001 digits) (at position 4)"
    assert main(["lct", text]) == 2
    assert "integer literal too long" in capsys.readouterr().err


def test_deep_nesting_is_a_parse_error(capsys):
    text = "(" * 5000 + "x" + ")" * 5000 + "+y^2"
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert type(exc.value) is ParseError
    assert main(["lct", text]) == 2
    assert "expression nested too deeply" in capsys.readouterr().err


def test_moderate_nesting_parses():
    assert parse_poly("(" * 100 + "x" + ")" * 100) == parse_poly("x")


def test_exponent_limit_inside_a_monomial(no_huge_powers):
    with pytest.raises(ExponentTooLarge) as exc:
        parse_poly("x*y^1001")
    assert str(exc.value) == "power exceeds the exponent limit 1000 (at position 3)"


class TestBinomialPower:
    @pytest.mark.parametrize("base", ["x + y", "2*x - 3/4*y^2", "x^3*y - 5", "1/2 + y", "-x*y + 7/3*x^2"])
    def test_matches_repeated_multiplication(self, base):
        a, _ = _grammar(base, ("x", "y"))
        expected = {(0, 0): 1}
        for n in range(13):
            assert list(pow_terms(a, n, {(0, 0): 1}).items()) == list(expected.items())
            expected = mul_terms(expected, a)

    def test_thousandth_power(self):
        terms = parse_terms("(x+y)^1000", ("x", "y"))
        assert len(terms) == 1001
        assert terms[(500, 500)] == math.comb(1000, 500)

    def test_base_in_lowest_terms(self):
        """A power's base is divided by its common factor first, so the
        power's numerators are as long as its charge says, not taken over
        n^2000."""
        n = 2**61 - 1
        terms, den = _grammar(f"({n}/{n}*x*{n}/{n} + y)^1000", ("x", "y"))
        assert den == 1 and terms[(500, 500)] == math.comb(1000, 500)


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


@st.composite
def monomial_sums(draw, names):
    """Flat sums of signed monomials such as ``3/2*x*y^4`` or
    ``y ^ 4*x * 3/2``: literals and variable powers in shuffled order,
    random whitespace around every operator, drawn as (text, sympy Poly)."""
    gens = sympy.symbols(names)

    def space():
        return draw(st.sampled_from(("", " ", "  ", "\t")))

    text, total = "", sympy.Integer(0)
    for i in range(draw(st.integers(1, 6))):
        factors, value = [], sympy.Integer(1)
        for _ in range(draw(st.integers(0, 2))):
            q = draw(st.fractions(min_value=0, max_value=20, max_denominator=6))
            slash = q.denominator > 1 or draw(st.booleans())
            factors.append(f"{q.numerator}{space()}/{space()}{q.denominator}" if slash else str(q.numerator))
            value *= sympy.Rational(q.numerator, q.denominator)
        for name, gen in zip(names, gens):
            for _ in range(draw(st.integers(0, 2))):
                e = draw(st.integers(0, 4))
                factors.append(name if e == 1 and draw(st.booleans()) else f"{name}{space()}^{space()}{e}")
                value *= gen**e
        factors = draw(st.permutations(factors or ["1"]))
        sign = draw(st.sampled_from("+-"))
        if i or sign == "-" or draw(st.booleans()):
            text += f"{space()}{sign}"
        text += space() + f"{space()}*{space()}".join(factors)
        total += value if sign == "+" else -value
    return text + space(), sympy.Poly(total, *gens, domain="QQ")


def sympy_terms(p):
    return {exp: Fraction(int(c.p), int(c.q)) for exp, c in p.as_dict().items()}


class TestAgainstSympy:
    @given(expressions(("x", "y")))
    def test_parse_poly(self, drawn):
        text, expected = drawn
        terms = parse_poly(text).terms
        assert terms == sympy_terms(expected)
        assert all(type(c) is Fraction for c in terms.values())

    @given(expressions(("x", "y", "z")))
    def test_parse_terms_three_variables(self, drawn):
        text, expected = drawn
        assert parse_terms(text, ("x", "y", "z")) == sympy_terms(expected)

    @given(monomial_sums(("x", "y")))
    def test_monomial_sums(self, drawn):
        text, expected = drawn
        assert parse_poly(text).terms == sympy_terms(expected)

    @given(monomial_sums(("x", "y", "z")))
    def test_monomial_sums_three_variables(self, drawn):
        text, expected = drawn
        assert parse_terms(text, ("x", "y", "z")) == sympy_terms(expected)


@st.composite
def flat_sums(draw):
    """Flat sums ``c[/q][*x[^i]][*y[^j]]`` as ``BPoly.render`` writes them:
    random signs, integer and ``p/q`` coefficients, exponents 0 to
    ``MAX_EXPONENT``, monomials drawn from a small pool so that some repeat
    or cancel, and random whitespace around the signs and at the ends."""
    def monomial():
        coeff = draw(st.sampled_from(("", "int", "p/q")))
        x, y = (draw(st.one_of(st.none(), st.integers(0, MAX_EXPONENT))) for _ in "xy")
        parts = [] if coeff == "" else [str(draw(st.integers(0, 10**6)))]
        if coeff == "p/q":
            parts[0] += f"/{draw(st.integers(1, 10**6))}"
        for name, e in (("x", x), ("y", y)):
            if e is not None:
                parts.append(name if e == 1 and draw(st.booleans()) else f"{name}^{e}")
        return "*".join(parts or ["1"])

    def space():
        return draw(st.sampled_from(("", " ", "  ", "\t")))

    pool = [monomial() for _ in range(draw(st.integers(1, 4)))]
    text = space()
    for k in range(draw(st.integers(1, 8))):
        sign = draw(st.sampled_from("+-"))
        if k or sign == "-" or draw(st.booleans()):
            text += f"{sign}{space()}"
        text += draw(st.sampled_from(pool)) + space()
    return text


# Near misses of a flat sum, each spliced into one as a summand: the
# grammar must read them, or report their error.
NEAR_MISSES = ("3/0*x", "0/0", "x^1001", "0*y^1001", "0*x*y^1001", "1" + "0" * 5000 + "*y",
               "x^\u0663", "\u0663*y", "x^2^3", "2/3^2", "2x", "x*yy", "y*x", "x * y", "x^ 2",
               "3 / 4*x", "(x+y)", "+-x", "-")


class TestFlatReader:
    @staticmethod
    def grammar(text):
        return BPoly(parse_terms(text, ("x", "y")))

    def assert_same_as_grammar(self, text):
        try:
            expected = self.grammar(text)
        except LctError as exc:
            with pytest.raises(LctError) as got:
                parse_poly(text)
            assert (type(got.value), str(got.value), getattr(got.value, "position", None)) == (
                type(exc), str(exc), getattr(exc, "position", None))
        else:
            assert parse_poly(text) == expected

    @given(flat_sums())
    def test_reads_flat_sums_as_the_grammar(self, text):
        assert _read_flat(text) is not None
        self.assert_same_as_grammar(text)

    @given(flat_sums(), st.sampled_from(NEAR_MISSES), st.sampled_from(("+", " - ", "", " ")), st.booleans())
    def test_near_misses_go_to_the_grammar(self, text, miss, sign, at_end):
        text = f"{text}{sign}{miss}" if at_end else f"{miss}{sign}{text}"
        self.assert_same_as_grammar(text)

    @pytest.mark.parametrize("text", ["", "   ", "x+", "x - ", "+", "x^2^3", "2/3^2", "2x", "x*yy", "+-x"])
    def test_malformed(self, text):
        assert _read_flat(text) is None
        self.assert_same_as_grammar(text)

    @pytest.mark.parametrize("text", [
        "x" + " " * 50_000, " " * 50_000, "x +" + " " * 50_000 + "- y", "x" + " " * 50_000 + "@",
        "1" * 50_000 + "@", "x^" + "1" * 50_000 + " " * 50_000 + "@", "+".join(["x*y"] * 20_000),
    ])
    def test_long_texts(self, text):
        """Backtracking over whitespace or digits keeps both scans linear in
        the text; a quadratic one would take minutes here."""
        self.assert_same_as_grammar(text)

    @given(st.dictionaries(st.tuples(st.integers(0, MAX_EXPONENT), st.integers(0, MAX_EXPONENT)),
                           st.fractions(max_denominator=10**6), max_size=8))
    def test_round_trip_render(self, terms):
        f = BPoly(terms)
        assert _read_flat(f.render()) == f
        assert parse_poly(f.render()) == f

    def test_fast_path_is_taken(self, monkeypatch):
        def refuse(text, variables):
            raise AssertionError(f"the grammar read {text!r}")

        monkeypatch.setattr("lctplane.parse._grammar", refuse)
        assert parse_poly("3/2*x*y^14-2*y^15+3*x^2") == BPoly(
            {(1, 14): Fraction(3, 2), (0, 15): -2, (2, 0): 3})
        assert parse_poly("x^2 + y^3") == BPoly({(2, 0): 1, (0, 3): 1})


class TestHelpers:
    def test_parse_rational(self):
        assert parse_rational("5/9") == Fraction(5, 9)
        assert parse_rational("-3") == Fraction(-3)
        assert parse_rational(" +6/4 ") == Fraction(3, 2)
        assert parse_rational("-0/7") == 0
        for text in ("x", "1.5", ".5", "1_000", "1e9999999", "5/0", "5/-3", "1/2/3",
                     "5 / 9", "", "/3", "inf", "nan", "\u0663", "9" * 5000):
            with pytest.raises(ParseError):
                parse_rational(text)

    def test_parse_terms_three_variables(self):
        terms = parse_terms("x*y*z + 2*z^3", ("x", "y", "z"))
        assert terms == {(1, 1, 1): Fraction(1), (0, 0, 3): Fraction(2)}

    def test_round_trip_render(self):
        f = parse_poly("x^4 - 3/7*x*y^2 + y - 5")
        assert parse_poly(f.render()) == f
        assert isinstance(f, BPoly)
