"""Unit tests for the degree <= 5 classification tables and samplers."""

import hashlib
import json
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st
from test_dispatch import branch_products, singular_germs

from lctplane import lct
from lctplane.classify import (
    _signature,
    all_symbols,
    allowed_types,
    class_info,
    classify_singularity,
    sample_normal_form,
    table1_values,
)
from lctplane.errors import (
    DegreeOutOfRange,
    IrrationalCenter,
    NotClassifiable,
    NotSingular,
    NotSquareFree,
    ZeroPolynomial,
)
from lctplane.extended import INF
from lctplane.localinv import is_square_free, milnor_number_origin
from lctplane.parse import parse_poly as P
from lctplane.poly import ZERO, BPoly
from lctplane.resolution import lct_from_tree, resolve_over_origin

TABLES_SHA256 = "e94a12e9fd237a46c0cbc1f4b2f5c4aaebe4c890239b9a10c8cbf3e0b26f4d53"


class TestTablesData:
    def test_checksum_frozen(self):
        raw = resources.files("lctplane.data").joinpath("tables.json").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == TABLES_SHA256

    def test_row_count(self):
        assert len(all_symbols()) == 40

    def test_key_injective(self):
        raw = resources.files("lctplane.data").joinpath("tables.json").read_text()
        rows = json.loads(raw)["classes"]
        keys = {
            (r["mult"], tuple(sorted(r["pattern"], reverse=True)), r["mu"])
            for r in rows
        }
        assert len(keys) == len(rows)

    def test_lct_formulas(self):
        for k in range(1, 13):
            assert class_info(f"A{k}").lct == Fraction(k + 3, 2 * (k + 1))
        for k in range(4, 13):
            assert class_info(f"D{k}").lct == Fraction(k, 2 * (k - 1))
        for symbol in all_symbols():
            if symbol.startswith("T(2,"):
                assert class_info(symbol).lct == Fraction(1, 2)


class TestAllowedTypes:
    def test_d2(self):
        assert allowed_types(2) == frozenset({"A1"})

    def test_d3(self):
        assert allowed_types(3) == frozenset({"A1", "A2", "A3", "D4"})

    def test_d4(self):
        assert allowed_types(4) == frozenset(
            {f"A{k}" for k in range(1, 8)}
            | {"D4", "D5", "D6", "E6", "E7", "T(2,4,4)"}
        )

    def test_d1_empty(self):
        assert allowed_types(1) == frozenset()

    def test_out_of_range(self):
        for d in (0, 6):
            with pytest.raises(DegreeOutOfRange):
                allowed_types(d)


@pytest.mark.parametrize("call, error, message", [
    (lambda: classify_singularity(ZERO), ZeroPolynomial, "cannot classify the zero polynomial"),
    (lambda: class_info("nope"), KeyError, "unknown singularity symbol 'nope'"),
], ids=["classify_singularity", "class_info"])
def test_documented_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert caught.type is error and caught.value.args == (message,)


class TestClassify:
    def test_a2(self):
        cls = classify_singularity(P("x^2 + y^3"))
        assert (cls.symbol, cls.mu, cls.lct) == ("A2", 2, Fraction(5, 6))

    def test_z11(self):
        cls = classify_singularity(P("x^3*y + y^5 + x*y^4"))
        assert (cls.symbol, cls.mu, cls.lct) == ("Z11", 11, Fraction(7, 15))

    def test_t244_a0(self):
        cls = classify_singularity(P("x^4 + y^4"))
        assert (cls.symbol, cls.mu, cls.lct) == ("T(2,4,4)", 9, Fraction(1, 2))

    def test_degenerate_t244(self):
        with pytest.raises(NotSquareFree):
            classify_singularity(P("x^4 + 2*x^2*y^2 + y^4"))

    def test_refusals_before_reducedness(self):
        # resolve_over_origin checks reducedness, after the classifier's own
        # refusals: a smooth germ, then a multiplicity no row has
        with pytest.raises(NotSingular):
            classify_singularity(P("x*(y - 1)^2"))
        with pytest.raises(NotClassifiable, match="no table row has multiplicity 9"):
            classify_singularity(P("(x + y)^2*x^7"))

    def test_smooth_rejected(self):
        with pytest.raises(NotSingular):
            classify_singularity(P("y - x^2"))

    def test_off_origin_rejected(self):
        with pytest.raises(NotSingular):
            classify_singularity(P("x + 1"))

    @pytest.mark.parametrize("text", ["x^3 + y^7", "x^3 + x*y^5", "y^3 + x^2*y^3 + x^8"])
    def test_newton_bound_refuses_row(self, text):
        # each germ has the triple of a T(2,3,k) row, whose lct is 1/2, but
        # its lct is 10/21, 7/15 or 11/24, and its resolution ledger is no row's
        with pytest.raises(NotClassifiable):
            classify_singularity(P(text))

    def test_unmatched_triple(self):
        # an ordinary 7-fold point never occurs on a reduced quintic germ
        f = P("x^7 + y^7 + x*y^6 + 2*x^6*y + x^2*y^5")
        if milnor_number_origin(f) is not INF:
            with pytest.raises(NotClassifiable):
                classify_singularity(f)


class TestLedgerClassifier:
    def test_rows_have_distinct_signatures(self):
        signatures = {}
        for symbol in all_symbols():
            for seed in range(10):
                nodes = resolve_over_origin(sample_normal_form(symbol, seed)).nodes
                signatures.setdefault(symbol, set()).add(_signature(nodes))
        assert all(len(sigs) == 1 for sigs in signatures.values())
        assert len(set.union(*signatures.values())) == 40

    def test_signature_ignores_order_of_children(self):
        # a cusp and a tacnode-like branch on E1 at t = 0 and t = 1, then
        # swapped: the ledgers list the two subtrees in opposite orders
        f = resolve_over_origin(P("(y^2 - x^3)*((y - x)^2 - x^4)")).nodes
        g = resolve_over_origin(P("((y - x)^2 - x^3)*(y^2 - x^4)")).nodes
        assert [n.divisor.m for n in f] == [4, 5, 10, 6]
        assert [n.divisor.m for n in g] == [4, 6, 5, 10]
        assert _signature(f) == _signature(g)

    @pytest.mark.parametrize("text", ["x^2 + y^5 + y^7", "x^2 + y^5 + x^3*y^4"])
    def test_degree_above_5_matches_a4(self, text):
        assert classify_singularity(P(text)).symbol == "A4"

    @settings(max_examples=300)
    @given(singular_germs)
    def test_agrees_with_oracle(self, f):
        # lct never runs the classifier, so its rows are checked here against
        # the oracle's lct on reduced germs of degree <= 5
        assume(is_square_free(f))
        try:
            tree = resolve_over_origin(f)
        except IrrationalCenter:
            assume(False)
        assert classify_singularity(f).lct == lct_from_tree(tree)

    def test_irrational_center_falls_back_to_triple(self):
        cls = classify_singularity(P("(x^2 - 2*y^2)^2 + y^5"))
        assert (cls.symbol, cls.mu) == ("T(2,5,5)", 11)

    @pytest.mark.parametrize(
        "text, symbol",
        [
            ("(x^2 - 2*y^2)^2 + y^5 + x^7", "T(2,5,5)"),
            ("(x^2 - 2*y^2)^2 + x^6", "T(2,6,6)"),
            ("(x^2 + y^2)^2 + x^3*y^3", "T(2,6,6)"),
        ],
    )
    def test_triple_above_degree_5(self, text, symbol):
        # a cone c q^2 with q an irreducible quadratic: mu 11 or 13 proves
        # the row at any degree, with no Newton-edge check
        assert classify_singularity(P(text)).symbol == symbol


# q^2 plus terms of degree 5 to 8, q an irreducible quadratic: a cone c q^2,
# whose resolution needs an irrational center, so the triple classifies it
squared_quadratics = st.builds(
    lambda q, tail: P(q) ** 2 + BPoly(tail),
    st.sampled_from(("x^2 - 2*y^2", "x^2 + y^2", "x^2 + x*y + y^2")),
    st.dictionaries(
        st.sampled_from([(i, d - i) for d in range(5, 9) for i in range(d + 1)]),
        st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
        min_size=1,
        max_size=3,
    ),
)


class TestClassifierAgainstIndependentRoutes:
    @settings(max_examples=300)
    @given(st.one_of(singular_germs, branch_products(), squared_quadratics))
    def test_row_invariants_match_lct_and_milnor(self, f):
        # the row is read off the ledger or the triple; lct in adapted
        # coordinates and Fulton's recursion read neither
        assume(f.degree <= 8 and is_square_free(f))
        try:
            cls = classify_singularity(f)
        except (NotClassifiable, NotSingular):
            assume(False)
        assert (cls.mult, cls.lct, cls.mu) == (
            f.multiplicity(), lct(f).value, milnor_number_origin(f)
        )


class TestLctLowDegree:
    """``lct`` on curves of degree <= 5, where Table 1 holds, and past them;
    at a rational point p, as ``lct(f.translate(p))``."""

    def test_smooth(self):
        assert lct(P("y - x^2")).value == 1

    def test_d5_type(self):
        f = P("x^2*y + y^4")
        assert lct(f).value == classify_singularity(f).lct == Fraction(5, 8)

    def test_off_curve(self):
        assert lct(P("x^2 + y^3").translate((7, 5))).value is INF

    def test_translated_point(self):
        f = P("x^2 + y^3").translate((-1, -2))
        assert lct(f.translate((1, 2))).value == Fraction(5, 6)

    def test_degree_out_of_range(self):
        # past the classifier's degrees, lct answers by its own routes
        assert lct(P("x^6 + y^6 + x*y")) == (1, "newton")


class TestTable1:
    EXPECTED = {
        1: ("1",),
        2: ("1",),
        3: ("2/3", "3/4", "5/6", "1"),
        4: (
            "1/2", "5/9", "7/12", "3/5", "5/8", "9/14",
            "2/3", "7/10", "3/4", "5/6", "1",
        ),
        5: (
            "2/5", "7/16", "9/20", "5/11", "7/15", "1/2", "8/15",
            "6/11", "11/20", "5/9", "9/16", "4/7", "15/26", "7/12",
            "13/22", "3/5", "11/18", "5/8", "9/14", "2/3", "7/10",
            "3/4", "5/6", "1",
        ),
    }

    def test_rows_exact(self):
        for d, row in self.EXPECTED.items():
            assert table1_values(d) == tuple(Fraction(v) for v in row)

    def test_d5_has_24_values(self):
        assert len(table1_values(5)) == 24


class TestSampler:
    def test_deterministic(self):
        for symbol in ("A3", "T(2,3,6)", "N16"):
            assert sample_normal_form(symbol, 7) == sample_normal_form(symbol, 7)

    def test_a3_parameterless(self):
        assert sample_normal_form("A3", 0) == P("x^2 + y^4")

    def test_round_trip_all_symbols(self):
        for symbol in all_symbols():
            for seed in range(3):
                f = sample_normal_form(symbol, seed)
                assert classify_singularity(f).symbol == symbol

    def test_unknown_symbol(self):
        with pytest.raises(KeyError):
            sample_normal_form("Q99", 0)
