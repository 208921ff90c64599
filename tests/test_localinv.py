"""Unit tests for local invariants (intersection multiplicity, Milnor
number, tangent cone pattern, square-freeness, weighted bound, the lct off
the Newton polygon in adapted coordinates)."""

import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import lctplane

from lctplane import localinv
from lctplane.errors import (
    IrrationalCenter, NotSquareFree, NotThroughOrigin, PreconditionError, ZeroPolynomial,
)
from lctplane.extended import INF
from lctplane.localinv import (
    intersection_multiplicity_origin as imult,
    is_square_free,
    milnor_number_origin as milnor,
    newton_lct,
    tangent_cone_pattern,
    weighted_lct_upper_bound,
)
from lctplane.parse import parse_poly as P
from lctplane.poly import ONE, ZERO, BPoly, X, Y, shift_terms
from lctplane.resolution import lct_from_tree, resolve_over_origin


class TestIntersectionMultiplicity:
    def test_transversal_lines(self):
        assert imult(P("x"), P("y")) == 1

    def test_parabola_axis(self):
        assert imult(P("y - x^2"), P("y")) == 2

    def test_cusp_partials(self):
        assert imult(P("2*x"), P("3*y^2")) == 2

    def test_off_origin(self):
        assert imult(P("x - 1"), P("y")) == 0

    def test_common_component(self):
        assert imult(P("x*y"), P("x*(x + y)")) is INF

    def test_symmetry(self):
        pairs = [("x^2 + y^3", "x*y + y^2"), ("x^3 - y^2", "x + y^5")]
        for a, b in pairs:
            assert imult(P(a), P(b)) == imult(P(b), P(a))

    def test_additivity(self):
        f, g, h = P("x + y^2"), P("y - x^2"), P("y + x^3")
        assert imult(f, g * h) == imult(f, g) + imult(f, h)

    def test_lower_bound(self):
        f, g = P("x^2 + y^3"), P("x*y + x^3")
        assert imult(f, g) >= f.multiplicity() * g.multiplicity()

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            imult(ZERO, P("x"))


class TestGermCheck:
    """The refusals every invariant at the origin shares."""

    _CHECKED = [
        (milnor, "Milnor number of the zero polynomial"),
        (tangent_cone_pattern, "tangent cone of the zero polynomial"),
        (lambda f: weighted_lct_upper_bound(f, (1, 2)), "weighted bound of the zero polynomial"),
        (newton_lct, "Newton boundary of the zero polynomial"),
        (resolve_over_origin, "cannot resolve the zero polynomial"),
    ]

    @pytest.mark.parametrize("func, message", _CHECKED)
    def test_zero(self, func, message):
        with pytest.raises(ZeroPolynomial, match=f"^{re.escape(message)}$"):
            func(ZERO)

    @pytest.mark.parametrize("func", [func for func, _ in _CHECKED])
    def test_not_through_origin(self, func):
        with pytest.raises(NotThroughOrigin, match="^curve does not pass through the origin$"):
            func(P("1 + x"))


class TestMilnorNumber:
    def test_cusp(self):
        assert milnor(P("x^2 + y^3")) == 2

    def test_d5(self):
        assert milnor(P("x^2*y + y^4")) == 5

    def test_smooth(self):
        assert milnor(P("y + x^2")) == 0
        assert milnor(P("x")) == 0  # f_y is zero

    def test_non_isolated(self):
        assert milnor(P("x^2*y^2")) is INF
        # one partial zero, the other through the origin
        assert milnor(P("y^3")) is INF and milnor(P("x^2")) is INF

    def test_not_through_origin(self):
        with pytest.raises(NotThroughOrigin):
            milnor(P("x + 1"))

    def test_ak_series(self):
        for k in range(1, 13):
            assert milnor(P(f"x^2 + y^{k + 1}")) == k

    def test_three_branches_within_bezout_bound(self):
        # mu = 2*delta - r + 1 with delta = 1 + 1 + 12 + (4 + 10 + 14) = 42 and
        # r = 3 branches; without dropping the terms above the Bezout bound
        # the recursion's unit products make this run for minutes
        path = (str(Path(lctplane.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        code = (
            "from lctplane.localinv import milnor_number_origin as m; "
            "from lctplane.parse import parse_poly as P; "
            "print(m(P('(x^3-y^2)*(x^2-y^3)*(x^5-y^7)')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "82"


class TestTangentConePattern:
    def test_three_distinct_lines(self):
        assert tuple(tangent_cone_pattern(P("x^2*y + y^3"))) == (1, 1, 1)

    def test_triple_line(self):
        assert tuple(tangent_cone_pattern(P("x^3 + y^4"))) == (3,)

    def test_three_one(self):
        assert tuple(tangent_cone_pattern(P("x^3*y + y^5"))) == (3, 1)

    def test_entries_sum_to_multiplicity(self):
        for text in ("x^2 + y^3", "x^3*y + y^5", "x^2*y + y^3", "x^5 + y^5"):
            f = P(text)
            assert sum(tangent_cone_pattern(f)) == f.multiplicity()


class TestSquareFree:
    def test_zero(self):
        with pytest.raises(ZeroPolynomial) as caught:
            is_square_free(ZERO)
        assert caught.type is ZeroPolynomial
        assert caught.value.args == ("square-freeness of the zero polynomial",)

    def test_three_lines(self):
        assert is_square_free(P("x*y*(x - y)"))

    def test_squared_conic(self):
        assert not is_square_free(P("(x^2 + y^2)^2"))

    def test_degenerate_t244(self):
        assert not is_square_free(P("x^4 + 2*x^2*y^2 + y^4"))

    def test_single_variable_factor(self):
        assert is_square_free(P("y"))
        assert not is_square_free(P("y^2"))
        assert not is_square_free(P("x^2*(y + 1)"))
        # gcd(f, f_x) alone calls the next two non-squarefree, and
        # x*(y + 1)^2 is squarefree as a polynomial in x over Q(y)
        assert is_square_free(P("y*(x + 1)"))
        assert is_square_free(P("(y + 1)*(x^2 + y)"))
        assert not is_square_free(P("x*(y + 1)^2"))

    def test_square_of_x_or_y_refused_without_gcd(self, monkeypatch):
        monkeypatch.setattr(localinv, "gcd_many", lambda polys: pytest.fail("gcd_many ran"))
        for text in ("x^2*y", "y^2*(x + y)", "x^3 + x^2*y^5"):
            assert not is_square_free(P(text)), text


class TestWeightedBound:
    def test_e6(self):
        f = P("x^3 + y^4")
        result = weighted_lct_upper_bound(f, (4, 3))
        assert result.bound == Fraction(7, 12)
        assert result.wt == 12 and result.leading_part == f

    def test_a4(self):
        assert weighted_lct_upper_bound(P("x^2 + y^5"), (5, 2)).bound == Fraction(
            7, 10
        )

    def test_t236(self):
        f = P("x^2*y^2 + x^3 + y^6")
        result = weighted_lct_upper_bound(f, (2, 1))
        assert result.bound == Fraction(1, 2)
        assert result.wt == 6
        assert result.leading_part == f

    def test_invariant_formula(self):
        f = P("x^2 + y^3")
        r = weighted_lct_upper_bound(f, (Fraction(3, 2), 1))
        assert r.bound == (r.weights[0] + r.weights[1]) / r.wt

    def test_weight_11_is_multiplicity(self):
        for text in ("x", "x^2 + y^3", "x^3*y + y^5"):
            f = P(text)
            assert weighted_lct_upper_bound(f, (1, 1)).wt == f.multiplicity()

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            weighted_lct_upper_bound(ZERO, (1, 1))

    def test_nonpositive_weights_rejected_first(self):
        # an LctError, and before the curve itself is looked at
        for w in ((0, 1), (1, -2), (Fraction(-1, 2), 3)):
            for f in (P("x^2 + y^3"), P("x + 1"), ZERO):
                with pytest.raises(PreconditionError, match="weights must be positive"):
                    weighted_lct_upper_bound(f, w)

    _weight = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5)

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(any),
            st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
            min_size=1,
            max_size=10,
        ),
        st.tuples(_weight, _weight),
    )
    def test_leading_part_is_the_face_of_least_weight(self, terms, w):
        f = BPoly(terms)
        result = weighted_lct_upper_bound(f, w)
        assert result.wt == min(i * w[0] + j * w[1] for i, j in f.terms)
        lead = result.leading_part
        assert dict(lead.terms) == {
            (i, j): c for (i, j), c in f.terms.items() if i * w[0] + j * w[1] == result.wt
        }
        # the integer numerators over the denominator are in lowest terms
        assert math.gcd(lead._den, *lead._terms.values()) == 1


_small = st.integers(-3, 3).filter(bool)


@st.composite
def _binomial_above_edge(draw):
    """``c1 x^i0 y^j0 + c2 x^i1 y^j1`` plus terms strictly above that edge;
    i0 or j1 may be 1, a germ x g or y g that is not convenient."""
    i0, j1 = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    i1, j0 = draw(st.integers(i0 + 1, 7)), draw(st.integers(j1 + 1, 7))
    w1, w2 = j0 - j1, i1 - i0
    n = w1 * i0 + w2 * j0
    above = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
        lambda e: w1 * e[0] + w2 * e[1] > n
    )
    terms = draw(st.dictionaries(above, _small, max_size=3))
    terms.update({(i0, j0): draw(_small), (i1, j1): draw(_small)})
    return BPoly(terms)


@st.composite
def _ordinary_point(draw):
    """m >= 2 distinct lines through the origin, plus a term of degree m + 1."""
    lines = draw(
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
                 min_size=2, max_size=4, unique_by=lambda q: Fraction(q[1], q[0]) if q[0] else None)
    )
    f = math.prod((a * X + b * Y for a, b in lines), start=ONE)
    i = draw(st.integers(0, len(lines) + 1))
    return f + draw(_small) * X**i * Y ** (len(lines) + 1 - i)


_a_k = st.builds(lambda k, c: Y**2 + c * X ** (k + 1), st.integers(1, 12), _small)


@st.composite
def _moved(draw, germs):
    """A germ, times x or y or not, under a unimodular linear map: a
    product of up to two elementary matrices, then perhaps the swap."""
    f = draw(germs) * draw(st.sampled_from([ONE, X, Y]))
    sx, sy = X, Y
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(-2, 2))
        sx, sy = (sx + k * sy, sy) if draw(st.booleans()) else (sx, sy + k * sx)
    if draw(st.booleans()):
        sx, sy = sy, sx
    return f.substitute(sx, sy)


class TestNewtonLct:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("x^2 + y^5", Fraction(7, 10)),
            ("x^2 + y^6 + x*y^4", Fraction(2, 3)),  # (1, 4) lies above the edge
            ("x*(y^2 - x^3)", Fraction(5, 8)),  # not convenient: a vertical ray
            ("x^2 + y^201", Fraction(203, 402)),  # 102 blowups, one edge
            ("x^2*y^2 + x^3 + y^6", Fraction(1, 2)),  # the diagonal meets a vertex
            ("x*y", Fraction(1)),
            ("x + y^2", Fraction(1)),
            ("x^3 + y^3 + x*y^2", Fraction(2, 3)),  # 1 + t^2 + t^3 on the edge
        ],
    )
    def test_values(self, text, value):
        assert newton_lct(P(text)) == value

    @pytest.mark.parametrize(
        "text, value, changes",
        [
            pytest.param(text, value, changes, id=text)
            for text, value, changes in [
                # not reduced: refused before any change, which for the first
                # would never end (y = x^2 + y^2 is no polynomial graph)
                ("(y - x^2 - y^2)^2", NotSquareFree, 0),
                ("x^4 + 2*x^2*y^2 + y^4", NotSquareFree, 0),
                # a root of multiplicity exactly d = 2 needs no change
                ("(x^2 - 2*y^2)^2 + y^7", Fraction(1, 2), 0),
                ("(y^2 - x^2)^2 + x^7", Fraction(1, 2), 0),
                ("(x - y)^2 + y^7", Fraction(9, 14), 1),
                ("(x - y^2)^2 + y^7", Fraction(9, 14), 1),  # x -> x + y^2, by the swap
                ("(y - x^2 - x^3 - x^4 - x^5)^2 + x^13", Fraction(15, 26), 4),
                # y -> y + x^m for m = 2..14, up to the contact x^15 of the branches
                ("((1 - x)*y - x^2)^2 + x^30", Fraction(8, 15), 13),
            ]
        ],
    )
    def test_square_on_an_edge(self, monkeypatch, text, value, changes):
        shifts = []
        monkeypatch.setattr(localinv, "shift_terms", lambda *a: shifts.append(a) or shift_terms(*a))
        if value is NotSquareFree:
            with pytest.raises(NotSquareFree):
                newton_lct(P(text))
        else:
            assert newton_lct(P(text)) == value
        assert len(shifts) == changes

    def test_refusals(self):
        with pytest.raises(ZeroPolynomial):
            newton_lct(ZERO)
        with pytest.raises(NotThroughOrigin):
            newton_lct(P("1 + x^2 + y^3"))

    @settings(max_examples=200)
    @given(_moved(st.one_of(_binomial_above_edge(), _ordinary_point(), _a_k)))
    @example(P("(x^2 - 2*y^2)^2 + y^7"))
    @example(P("(x^2 - 2*y^2)^2 + y^5"))
    @example(P("x*(y^2 - x^3)"))
    def test_agrees_with_the_oracle(self, f):
        # every reduced germ is answered; only the oracle may refuse one
        assume(is_square_free(f))
        value = newton_lct(f)
        try:
            tree = resolve_over_origin(f)
        except IrrationalCenter:
            assume(False)
        assert value == lct_from_tree(tree)
