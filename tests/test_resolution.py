"""Unit tests for the blowup-based resolution oracle."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, strategies as st

import lctplane
from lctplane import resolution
from lctplane.errors import (
    IrrationalCenter,
    NotSquareFree,
    NotThroughOrigin,
    PreconditionError,
    ResolutionCap,
)
from lctplane.extended import INF
from lctplane.localinv import is_square_free
from lctplane.parse import parse_poly as P
from lctplane.poly import BPoly, X, Y, _face, _newton_boundary, _quotient
from lctplane.resolution import (
    _centers_on,
    _poly_text,
    _relabel,
    export_tree,
    lct_from_tree,
    log_pullback_coefficients,
    resolve_over_origin,
)


# a triple line at t = 3 of E1 whose resolution chain crosses both kinds
# of old divisor, and a double line at infinity (x = 0)
_TWO_BRANCHES = "x^2*(y-3*x)^3 + x^7 + y^7"


def charts(f):
    """Strict transforms of ``f`` in both charts of the blowup of the origin,
    as the loop's exponent maps relabel them: chart 1 sends ``(i, j)`` to
    ``(i + j - mu, j)``, chart 2 to ``(i, i + j - mu)``."""
    mu = f.multiplicity()
    return _relabel(f, (1, 1, 0, 1, -mu, 0)), _relabel(f, (1, 0, 1, 1, 0, -mu))


class TestBlowupTransform:
    def test_cusp_charts(self):
        s1, s2 = charts(P("x^2 + y^3"))
        # chart (x, x*y): x^2 + x^3 y^3 = x^2 (1 + x y^3)
        assert s1 == P("1 + x*y^3")
        # chart (x*y, y): x^2 y^2 + y^3 = y^2 (x^2 + y)
        assert s2 == P("x^2 + y")

    def test_node(self):
        s1, s2 = charts(P("x*y"))
        assert s1 == P("y") and s2 == P("x")

    def test_charts_match_substitution(self):
        rng = random.Random(7)
        germs = [P(t) for t in ("x^2 + y^3", "x*y", "y^3 + x^3*y", "x", "y")]
        germs.append(Y + Fraction(-3, 2) * X)  # a smooth incident divisor
        for _ in range(12):
            terms = {
                (rng.randint(0, 6), rng.randint(0, 6)): Fraction(
                    rng.randint(-9, 9), rng.randint(1, 4)
                )
                for _ in range(rng.randint(1, 5))
            }
            terms.pop((0, 0), None)
            terms[(rng.randint(1, 3), 0)] = Fraction(1)  # nonzero, through the origin
            germs.append(BPoly(terms))
        for f in germs:
            s1, s2 = charts(f)
            mu = f.multiplicity()
            assert s1 == _quotient(f.substitute(X, X * Y), BPoly.monomial(mu, 0))
            assert s2 == _quotient(f.substitute(X * Y, Y), BPoly.monomial(0, mu))


_supports = st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=15)


class TestNewtonBoundary:
    def test_one_term(self):
        assert _newton_boundary({(2, 3): 5}) == [(2, 3)]

    def test_points_on_the_axes(self):
        assert _newton_boundary({(0, 3): 1, (2, 0): 1}) == [(0, 3), (2, 0)]
        assert _newton_boundary({(0, 3): 1, (1, 1): 1, (2, 0): 1}) == [(0, 3), (1, 1), (2, 0)]

    def test_interior_points_ignored(self):
        # (2, 2) lies inside the edge, (1, 3), (3, 3) and (5, 1) above it
        terms = {(0, 4): 1, (2, 2): 1, (4, 0): 1, (1, 3): 1, (3, 3): 1, (5, 1): 1}
        assert _newton_boundary(terms) == [(0, 4), (4, 0)]

    def test_collinear_support(self):
        assert _newton_boundary({(0, 4): 1, (3, 2): 1, (6, 0): 1}) == [(0, 4), (6, 0)]
        assert _newton_boundary({(1, 1): 1, (3, 1): 1, (5, 1): 1}) == [(1, 1)]

    @given(_supports, st.integers(1, 20), st.integers(1, 20))
    def test_face_is_the_set_of_minimizers(self, support, w1, w2):
        terms = dict.fromkeys(support, 1)
        hull = _newton_boundary(terms)
        assert set(hull) <= support
        low, face = _face(terms, hull, w1, w2)
        assert low == min(w1 * i + w2 * j for i, j in support)
        assert sorted(face) == sorted(e for e in support if w1 * e[0] + w2 * e[1] == low)
        # with no boundary given, the whole support is scanned
        scanned_low, scanned = _face(terms, None, w1, w2)
        assert (scanned_low, sorted(scanned)) == (low, sorted(face))


class TestResolveOverOrigin:
    def test_node_single_blowup(self):
        tree = resolve_over_origin(P("x*y"))
        assert [(d.m, d.a) for d in tree.divisors()] == [(2, 1)]
        assert lct_from_tree(tree) == 1

    def test_cusp_ledger(self):
        tree = resolve_over_origin(P("x^2 + y^3"))
        assert sorted((d.m, d.a) for d in tree.divisors()) == [(2, 1), (3, 2), (6, 4)]
        assert lct_from_tree(tree) == Fraction(5, 6)

    def test_smooth_short_circuit(self):
        tree = resolve_over_origin(P("y - x^2"))
        assert tree.nodes == []
        assert lct_from_tree(tree) == 1

    def test_e6(self):
        tree = resolve_over_origin(P("y^3 + x^4"))
        assert lct_from_tree(tree) == Fraction(7, 12)

    def test_ledger_order(self):
        # E1 has a triple point at t = 3 and a double one at infinity; the
        # chain at t = 3 keeps E1 along x = 0 (chart 2) and E2 along y = 0
        # (chart 1 at t = 0), so both axis slots are exercised
        tree = resolve_over_origin(P(_TWO_BRANCHES))
        ledger = [
            (
                node.divisor.id,
                node.parent,
                node.divisor.m,
                node.divisor.a,
                node.center.t,
                sorted(node.center.incident),
            )
            for node in tree.nodes
        ]
        # t = infinity of E_k and t = 0 are each a chart's origin, yet E3
        # and E5 read apart from E4
        assert ledger == [
            (1, None, 5, 1, None, []),
            (2, 1, 7, 2, 3, [1]),
            (3, 2, 13, 4, INF, [1, 2]),
            (4, 3, 21, 7, 0, [2, 3]),
            (5, 1, 7, 2, INF, [1]),
        ]
        # E3 and E4 blow up smooth points of the curve on two divisors
        assert [node.center.local_equation.multiplicity() for node in tree.nodes] == [
            5, 2, 1, 1, 2,
        ]

    def test_kept_divisor_meets_only_t0(self):
        # E2 is the point t = infinity of E1, where E1 runs along y = 0, so
        # E3, at t = 1 on E2, lies on E2 alone; in x' = x - y^2 the germ is
        # x'^3 + x'^2*y^2 + y^7, Newton non-degenerate with lct 1/2
        tree = resolve_over_origin(P("x*(x-y^2)^2 + y^7"))
        ledger = [
            (node.parent, node.divisor.m, node.divisor.a, sorted(node.center.incident))
            for node in tree.nodes
        ]
        assert ledger == [(None, 3, 1, []), (1, 6, 2, [1]), (2, 7, 3, [2]), (3, 14, 6, [2, 3])]
        assert tree.nodes[3 - 1].center.t == 1
        assert lct_from_tree(tree) == Fraction(1, 2)

    def test_numbering_ignores_import_history(self):
        script = (
            "import {}\n"
            "from lctplane import export_tree, parse_poly, resolve_over_origin\n"
            "print(export_tree(resolve_over_origin(parse_poly({!r})), 'json'))"
        )
        path = (str(Path(lctplane.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script.format(modules, _TWO_BRANCHES)],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            ).stdout
            for modules in ("sympy", "json, argparse")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0] == export_tree(resolve_over_origin(P(_TWO_BRANCHES)), "json") + "\n"

    def test_recurrences_hold(self):
        tree = resolve_over_origin(P("y^3 + x^3*y"))
        assert [node.divisor.id for node in tree.nodes] == list(range(1, len(tree.nodes) + 1))
        for node in tree.nodes:
            incident = [tree.nodes[i - 1].divisor for i in node.center.incident]
            mult = node.center.local_equation.multiplicity()
            assert node.divisor.m == mult + sum(d.m for d in incident)
            assert node.divisor.a == 1 + sum(d.a for d in incident)

    def test_repeated_part_of_degree_two(self):
        # E1 meets the curve in (t^2 - 1)^2: one repeated squarefree part of
        # degree 2, factored into the centers t = -1 and t = 1
        tree = resolve_over_origin(P("(y^2-x^2)^2+x^7"))
        ledger = [(node.parent, node.divisor.m, node.divisor.a) for node in tree.nodes]
        assert ledger == [
            (None, 4, 1),
            (1, 6, 2), (2, 7, 3), (3, 14, 6),
            (1, 6, 2), (5, 7, 3), (6, 14, 6),
        ]
        assert [tree.nodes[k - 1].center.t for k in (2, 5)] == [-1, 1]
        assert lct_from_tree(tree) == Fraction(1, 2)

    def test_irrational_center(self):
        with pytest.raises(IrrationalCenter) as exc:
            resolve_over_origin(P("(x^2 - 2*y^2)^2 + y^5"))
        assert exc.value.minimal_polynomial

    def test_cap(self):
        with pytest.raises(ResolutionCap):
            resolve_over_origin(P("x^2 + y^3"), cap=1)

    @pytest.mark.parametrize("text", ["x^2+y^3", "y-x^2"])
    def test_negative_cap_is_a_precondition(self, text):
        # refused before the germ is read, so a smooth germ is refused too
        with pytest.raises(PreconditionError, match="^cap must be at least 0, got -1$"):
            resolve_over_origin(P(text), cap=-1)

    @pytest.mark.parametrize("text, size", [
        ("x^2+y^63", 33),  # a Euclid run written in one loop step
        ("(y^2-x^2)^2+x^7", 7),  # centers at t = -1 and t = 1
        ("(x^2+y^3)*(x^3+y^2)", 5),
    ])
    def test_tree_is_only_returned_whole(self, text, size):
        # every cap below the ledger's size raises; a cap of its size
        # returns every node
        f = P(text)
        for cap in range(size):
            with pytest.raises(ResolutionCap, match=f"^more than {cap} blowups; cap exceeded$"):
                resolve_over_origin(f, cap=cap)
        tree = resolve_over_origin(f, cap=size)
        assert [node.divisor.id for node in tree.nodes] == list(range(1, size + 1))
        assert _chain(tree) == _chain(resolve_over_origin(f))

    def test_not_square_free(self):
        with pytest.raises(NotSquareFree):
            resolve_over_origin(P("x^2*(x + y^2)"))

    def test_not_through_origin(self):
        with pytest.raises(NotThroughOrigin):
            resolve_over_origin(P("x + 1"))


_T = sympy.Symbol("t")
_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _no_rational_root(q):
    disc = q.discriminant()
    return disc < 0 or not sympy.sqrt(disc).is_rational


# Restrictions to E_new: a unit times powers, 1 to 3, of rational lines
# (t itself among them) and of irreducible quadratics.
_restrictions = st.builds(
    lambda unit, powers: sympy.Poly(unit, _T, domain="QQ")
    * sympy.prod([q**e for q, e in powers]),
    _small.filter(bool),
    st.lists(
        st.tuples(
            st.one_of(
                st.just(sympy.Poly(_T, domain="QQ")),
                _small.map(lambda r: sympy.Poly(_T - sympy.Rational(r), domain="QQ")),
                st.tuples(_small, _small)
                .map(lambda pq: sympy.Poly(_T**2 + pq[0] * _T + pq[1], _T, domain="QQ"))
                .filter(_no_rational_root),
            ),
            st.integers(1, 3),
        ),
        min_size=1,
        max_size=4,
    ),
)


def _chain(tree):
    return [(node.divisor.m, node.divisor.a, node.parent) for node in tree.nodes]


class TestRuns:
    """Euclid runs: chains of chart-1 or chart-2 centers whose cone stays one
    vertex, written by the blowup loop in one step."""

    def test_chart_two_run(self):
        tree = resolve_over_origin(P("x^2 + y^201"), cap=102)
        assert [(d.m, d.a) for d in tree.divisors()] == (
            [(2 * k, k) for k in range(1, 101)] + [(201, 101), (402, 202)]
        )
        assert [node.parent for node in tree.nodes] == [None, *range(1, 102)]
        assert {node.center.t for node in tree.nodes[1:101]} == {INF}
        assert lct_from_tree(tree) == Fraction(203, 402)
        with pytest.raises(ResolutionCap, match="^more than 101 blowups; cap exceeded$"):
            resolve_over_origin(P("x^2 + y^201"), cap=101)

    def test_chart_one_run(self):
        tree = resolve_over_origin(P("y^2 + x^201"), cap=102)
        assert {node.center.t for node in tree.nodes[1:101]} == {0}
        assert _chain(tree) == _chain(resolve_over_origin(P("x^2 + y^201"), cap=102))
        with pytest.raises(ResolutionCap):
            resolve_over_origin(P("y^2 + x^201"), cap=101)

    @given(
        st.tuples(st.integers(2, 9), st.integers(10, 60)).filter(lambda ab: math.gcd(*ab) == 1)
    )
    def test_binomials_and_their_mirrors(self, ab):
        a, b = ab
        tree = resolve_over_origin(X**a + Y**b)
        assert _chain(tree) == _chain(resolve_over_origin(Y**a + X**b))
        # Varchenko's value on the Newton boundary, read without a blowup
        assert lct_from_tree(tree) == min(Fraction(1), Fraction(1, a) + Fraction(1, b))


class TestCentersOn:
    @given(_restrictions, st.booleans())
    def test_matches_irreducible_factors(self, ph, t0_kept):
        _, integral = ph.clear_denoms(convert=True)  # an integer multiple of ph
        coeffs = [int(c) for c in reversed(integral.all_coeffs())]
        _, factors = ph.factor_list()  # least degree, then least exponent first
        repeated = [(q, e) for q, e in factors if e >= 2]
        irrational = [q for q, _ in repeated if q.degree() >= 2]
        if irrational:
            with pytest.raises(IrrationalCenter) as exc:
                _centers_on(coeffs, t0_kept)
            first = [Fraction(int(c)) for c in reversed(irrational[0].all_coeffs())]
            assert exc.value.minimal_polynomial == _poly_text(first)
            return
        roots = {-q.nth(0) / q.nth(1) for q, _ in repeated}
        if t0_kept and ph.eval(0) == 0:
            roots.add(0)
        assert _centers_on(coeffs, t0_kept) == sorted(Fraction(str(r)) for r in roots)


# Reduced germs singular at the origin: sums of two to six terms of degree
# 2..6, and cusps (y - r x)^2 + c x^n, whose center on E1 is at t = r, so the
# translated charts are drawn as well as the t = 0 and t = infinity ones.
_reduced_germs = st.one_of(
    st.dictionaries(
        st.sampled_from([(i, d - i) for d in range(2, 7) for i in range(d + 1)]),
        _small.filter(bool),
        min_size=2,
        max_size=6,
    ).map(BPoly),
    st.builds(
        lambda r, c, n: (Y - r * X) ** 2 + c * X**n, _small, _small.filter(bool), st.integers(3, 9)
    ),
).filter(is_square_free)


class TestLedgerReadout:
    @given(_reduced_germs)
    def test_readout_and_lowest_terms(self, f):
        try:
            tree = resolve_over_origin(f)
        except (IrrationalCenter, ResolutionCap):
            assume(False)
        divisors = tree.divisors()
        assert lct_from_tree(tree) == min(
            [Fraction(1)] + [Fraction(d.a + 1, d.m) for d in divisors]
        )
        payload = json.loads(export_tree(tree, "json"))
        assert [d["candidate"] for d in payload["divisors"]] == [
            str(Fraction(d.a + 1, d.m)) for d in divisors
        ]
        # the charts skip the gcd pass: every local equation is still canonical
        for node in tree.nodes:
            g = node.center.local_equation
            assert g._den > 0 and math.gcd(g._den, *g._terms.values()) == 1


# Germs whose blowup steps draw every kind of tangent cone: monomial cones
# c x^(mu-j) y^j with j = 0 (x^a + c y^b), with j = 1 both at a root node
# (x*y + ...) and with a divisor kept along y = 0 (the chains), and with
# j >= 2; cones with a root t != 0 ((y - r x)^a + c x^b); and long chains.
_ledger_germs = st.one_of(
    _reduced_germs,
    st.builds(
        lambda a, b, c: X**a + c * Y**b, st.integers(2, 4), st.integers(2, 40), _small.filter(bool)
    ),
    st.builds(
        lambda a, b, r, c: (Y - r * X) ** a + c * X**b,
        st.integers(2, 3), st.integers(3, 60), _small.filter(bool), _small.filter(bool),
    ),
).filter(is_square_free)


def _through_chart(parent, node):
    """The parent's local equation pushed through the node's chart and
    divided by the exceptional power, the parent's multiplicity: chart 1 at
    t is x -> x, y -> x (y + t); chart 2 is x -> x y, y -> y."""
    g = parent.center.local_equation
    mu = g.multiplicity()
    if node.center.t is not INF:
        t = node.center.t
        return _quotient(g.substitute(X, X * (Y + t)), BPoly.monomial(mu, 0))
    return _quotient(g.substitute(X * Y, Y), BPoly.monomial(0, mu))


# An A_k germ whose first center is at t = 1, where the shift turns 7 terms
# into 104, and two cusps whose third node's face is the edge through (0, 4),
# (3, 2) and (6, 0) of the input.
_AK = "2*x*y^55-y^56-x*y^46+y^47-x^2+2*x*y-y^2"
_TWO_CUSPS = "(y^2-x^3)*(y^2-2*x^3)"


class TestLedgerInvariant:
    @given(_ledger_germs)
    @example(P("x*y + y^3 + x^5"))  # j = 1 at the root: no center on E1
    @example(P("x^2 + y^3"))  # j = 0, then j = 1 with E1 kept along y = 0
    @example(P("y^2 + x^5"))  # j = 2
    @example(P("(y - 2*x)^2 + x^9"))  # a chain centered at t = 2
    @example(P(_TWO_BRANCHES))
    @example(P(_AK))  # one base after the shift to t = 1, then 26 composed steps
    @example(P("x^5 + y^37"))  # a Euclid chain: the charts alternate
    @example(P("y^2 + x^61"))  # one chart-1 run of 29 centers
    @example(P(_TWO_CUSPS))  # an edge face with a point inside it
    def test_local_equations_follow_the_charts(self, f):
        try:
            tree = resolve_over_origin(f)  # every germ drawn resolves within the cap
        except IrrationalCenter:
            assume(False)
        assert not tree.nodes or tree.nodes[0].center.local_equation == f
        for node in tree.nodes[1:]:
            parent = tree.nodes[node.parent - 1]
            assert node.center.local_equation == _through_chart(parent, node)

    def test_only_a_shifted_center_builds_a_base(self):
        centers = [node.center for node in resolve_over_origin(P(_AK)).nodes]
        assert len(centers) == 28 and centers[1].t == 1
        assert centers[0].base == P(_AK) and len(centers[1].base._terms) == 104
        assert all(c.base is centers[1].base for c in centers[1:])
        assert [c.emap for c in centers[:2]] == [(1, 0, 0, 1, 0, 0)] * 2

    def test_edge_face_holds_its_inside_point(self):
        tree = resolve_over_origin(P(_TWO_CUSPS))
        third = tree.nodes[2].center
        assert third.base == P(_TWO_CUSPS)
        p, q, r, s, _, _ = third.emap
        _, face = _face(third.base._terms, _newton_boundary(third.base._terms), p + r, q + s)
        assert sorted(face) == [(0, 4), (3, 2), (6, 0)]
        assert third.local_equation == P("2*x^2 - 3*x*y + y^2")

    def test_one_divisor_call_per_node(self, monkeypatch):
        # the benchmark counts blowups by rebinding this module global
        calls, divisor = [], resolution.ExcDivisor

        def counted(*args):
            calls.append(args)
            return divisor(*args)

        monkeypatch.setattr(resolution, "ExcDivisor", counted)
        for text in (_AK, _TWO_CUSPS, _TWO_BRANCHES, "x^5 + y^37"):
            del calls[:]
            tree = resolve_over_origin(P(text))
            assert calls == [tuple(node.divisor) for node in tree.nodes]


class TestLogPullback:
    def test_cusp_at_lct(self):
        tree = resolve_over_origin(P("x^2 + y^3"))
        coeffs = log_pullback_coefficients(tree, Fraction(5, 6))
        by_ma = {
            (tree.nodes[i - 1].divisor.m, tree.nodes[i - 1].divisor.a): v
            for i, v in coeffs.items()
        }
        assert by_ma == {
            (2, 1): Fraction(2, 3),
            (3, 2): Fraction(1, 2),
            (6, 4): Fraction(1),
        }

    def test_lambda_must_be_positive(self):
        tree = resolve_over_origin(P("x^2 + y^3"))
        with pytest.raises(ValueError) as caught:
            log_pullback_coefficients(tree, 0)
        assert caught.type is ValueError and caught.value.args == ("lambda must be positive",)

    def test_small_lambda(self):
        tree = resolve_over_origin(P("x^2 + y^3"))
        coeffs = log_pullback_coefficients(tree, Fraction(1, 1000))
        assert all(v < 1 for v in coeffs.values())

    def test_threshold_characterization(self):
        cases = [
            ("y^3 + x^4", Fraction(7, 12)),
            # a sheared chain: deep resolution, large squarefree gcds
            ("1/2*y^41 - 2*x*y^38 - 1/2*x^4*y^33 + x^4*y^16 - x^6", Fraction(47, 246)),
        ]
        for text, expected in cases:
            tree = resolve_over_origin(P(text))
            lct = lct_from_tree(tree)
            assert lct == expected
            assert all(v <= 1 for v in log_pullback_coefficients(tree, lct).values())
            above = lct + Fraction(1, 1000)
            assert any(v > 1 for v in log_pullback_coefficients(tree, above).values())


class TestExport:
    def test_json_cusp(self):
        tree = resolve_over_origin(P("x^2 + y^3"))
        payload = json.loads(export_tree(tree, "json"))
        assert payload["lct"] == "5/6"
        assert [(d["m"], d["a"]) for d in payload["divisors"]] == [
            (2, 1),
            (3, 2),
            (6, 4),
        ]
        assert payload["divisors"][0]["parent"] is None
        assert payload["divisors"][1]["parent"] == payload["divisors"][0]["id"]

    def test_json_smooth(self):
        tree = resolve_over_origin(P("y - x^2"))
        payload = json.loads(export_tree(tree, "json"))
        assert payload["divisors"] == [] and payload["lct"] == "1"

    def test_json_node(self):
        payload = json.loads(export_tree(resolve_over_origin(P("x*y")), "json"))
        assert len(payload["divisors"]) == 1
        assert payload["divisors"][0]["m"] == 2 and payload["divisors"][0]["a"] == 1

    @pytest.mark.parametrize(
        "f, cap",
        [
            (P("y - x^2"), 64),  # no divisors
            (P("x^2 + y^3"), 64),  # a null parent, the integer candidate "1"
            (P("x^2 + y^201"), 102),
            # a rational, signed input, shifted to the origin
            (P("1/2*(x-1/3)^2 + 3/7*(y+2)^3 - 5/3*(x-1/3)*(y+2)^2").translate((Fraction(1, 3), -2)), 64),
        ],
    )
    def test_json_is_what_json_dumps_writes(self, f, cap):
        text = export_tree(resolve_over_origin(f, cap), "json")
        assert text == json.dumps(json.loads(text))

    def test_text_cusp(self):
        text = export_tree(resolve_over_origin(P("x^2 + y^3")), "text")
        assert text == (
            "E1 (over origin): m = 2, a = 1, candidate = 1\n"
            "E2 (over E1): m = 3, a = 2, candidate = 1\n"
            "E3 (over E2): m = 6, a = 4, candidate = 5/6\n"
            "lct = 5/6"
        )

    def test_text_smooth(self):
        assert export_tree(resolve_over_origin(P("y - x^2")), "text") == "lct = 1"

    @pytest.mark.parametrize("text", ["x^2 + y^201", "(y^2 - x^2)^2 + x^7", "x*y*(x - y)*(x + 2*y)"])
    def test_text_reads_the_ledger(self, text):
        # one line per node, candidate (a + 1) / m in lowest terms, then the lct
        tree = resolve_over_origin(P(text), 102)
        *lines, last = export_tree(tree, "text").split("\n")
        assert last == f"lct = {lct_from_tree(tree)}"
        assert lines == [
            f"E{div.id} (over {'origin' if parent is None else f'E{parent}'}): "
            f"m = {div.m}, a = {div.a}, candidate = {Fraction(div.a + 1, div.m)}"
            for div, parent, _ in tree.nodes
        ]

    def test_dot_cusp(self):
        dot = export_tree(resolve_over_origin(P("x^2 + y^3")), "dot")
        assert dot.startswith("digraph")
        assert 'E3 [label="E3 m=6 a=4 cand=5/6"]' in dot
        assert "E1 -> E2;" in dot and "E2 -> E3;" in dot

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_tree(resolve_over_origin(P("x*y")), "xml")
