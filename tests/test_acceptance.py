"""Acceptance criteria, one test per criterion.

All comparisons are exact rational equality — zero tolerance throughout.
Each test's one-line verdict is printed in the terminal summary (see
conftest.py).
"""

import random
import time
from fractions import Fraction

from lctplane.classify import (
    all_symbols,
    class_info,
    classify_singularity,
    sample_normal_form,
    table1_values,
)
from lctplane.corpus import random_high_mult_instance
from lctplane.highmult import analyze_high_mult, construct_witness, lambda_set
from lctplane.localinv import (
    intersection_multiplicity_origin as imult,
    milnor_number_origin as milnor,
    weighted_lct_upper_bound,
)
from lctplane.parse import parse_poly as P
from lctplane.poly import BPoly
from lctplane.resolution import (
    lct_from_tree,
    log_pullback_coefficients,
    resolve_over_origin,
)

TABLE1 = {
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

SAMPLES_PER_SYMBOL = 50


def _samples(symbol):
    return [sample_normal_form(symbol, seed) for seed in range(SAMPLES_PER_SYMBOL)]


def test_criterion_1_table1_reproduction():
    """criterion 1: table1_values(d) equals Table 1 exactly for d=1..5 (24 values at d=5), < 1 s"""
    start = time.perf_counter()
    for d, row in TABLE1.items():
        assert table1_values(d) == tuple(Fraction(v) for v in row)
    assert len(table1_values(5)) == 24
    assert time.perf_counter() - start < 1.0


def test_criterion_2_theorem_vs_oracle():
    """criterion 2: closed-form lct equals resolution-oracle lct on >= 100 random instances per degree 3..6, < 60 s"""
    start = time.perf_counter()
    rng = random.Random("acceptance-criterion-2")
    for d in (3, 4, 5, 6):
        for _ in range(100):
            f = random_high_mult_instance(d, rng)
            assert analyze_high_mult(f).lct == lct_from_tree(resolve_over_origin(f))
    assert time.perf_counter() - start < 60.0


def test_criterion_3_lambda_realization():
    """criterion 3: every lambda_set(d) target is realized by a witness for d=3..7, and random lcts stay in the set, < 10 s"""
    start = time.perf_counter()
    for d in range(3, 8):
        for target in lambda_set(d):
            f = construct_witness(d, target)
            assert f.degree == d and f.multiplicity() == d - 1
            assert analyze_high_mult(f).lct == target
    rng = random.Random("acceptance-criterion-3")
    for d in (3, 4, 5):
        for _ in range(25):
            f = random_high_mult_instance(d, rng)
            assert analyze_high_mult(f).lct in lambda_set(d)
    assert time.perf_counter() - start < 10.0


def test_criterion_4_normal_form_invariants():
    """criterion 4: (mult, mu) of >= 50 samples per classification row match the table exactly, < 30 s"""
    start = time.perf_counter()
    for symbol in all_symbols():
        info = class_info(symbol)
        for f in _samples(symbol):
            assert f.multiplicity() == info.mult
            assert milnor(f) == info.mu
    assert time.perf_counter() - start < 30.0


def test_criterion_5_classifier_round_trip():
    """criterion 5: classify(sample(s)) == s for all symbols and 50 seeds; degenerate boundaries raise NotSquareFree"""
    from lctplane.errors import NotSquareFree

    for symbol in all_symbols():
        for f in _samples(symbol):
            assert classify_singularity(f).symbol == symbol
    # T(2,4,4) boundary a^2 = 4 degenerates to a square
    try:
        classify_singularity(P("x^4 + 2*x^2*y^2 + y^4"))
        assert False, "degenerate boundary not detected"
    except NotSquareFree:
        pass
    # T(2,3,6) boundary 4a^3 + 27 = 0 has no rational solution
    assert all(4 * Fraction(p, q) ** 3 + 27 != 0
               for p in range(-40, 41) for q in range(1, 11))


def test_criterion_6_bound_properties():
    """criterion 6: 1/mult <= lct <= 2/mult, lct <= 2/(d-1) at mult-(d-1) points, lct <= weighted bound for 20 random weights"""
    rng = random.Random("acceptance-criterion-6")
    corpus = []
    for d in (3, 4, 5):
        for _ in range(15):
            f = random_high_mult_instance(d, rng)
            corpus.append((f, analyze_high_mult(f).lct, True))
    for symbol in all_symbols():
        f = sample_normal_form(symbol, 0)
        corpus.append((f, class_info(symbol).lct, False))
    for f, lct, high_mult in corpus:
        mult = f.multiplicity()
        assert Fraction(1, mult) <= lct <= Fraction(2, mult)
        if high_mult:
            assert lct <= Fraction(2, f.degree - 1)
        for _ in range(20):
            w = (rng.randint(1, 9), rng.randint(1, 9))
            assert lct <= weighted_lct_upper_bound(f, w).bound


def _random_poly(rng):
    while True:
        f = BPoly.zero()
        d = rng.randint(1, 3)
        for i in range(d + 1):
            for j in range(d + 1 - i):
                if i == j == 0:
                    continue
                if rng.random() < 0.5:
                    f = f + BPoly.monomial(
                        i, j, Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    )
        if not f.is_zero:
            return f


def test_criterion_7_fulton_properties():
    """criterion 7: I0 symmetry and additivity on >= 500 random pairs; mu = 0 at smooth points; mu(A_k) = k"""
    rng = random.Random("acceptance-criterion-7")
    for _ in range(500):
        f, g, h = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        assert imult(f, g) == imult(g, f)
        assert imult(f, g * h) == imult(f, g) + imult(f, h)
    for text in ("y + x^2", "x - y^3", "x + y"):
        assert milnor(P(text)) == 0
    for k in range(1, 13):
        assert milnor(P(f"x^2 + y^{k + 1}")) == k


def test_criterion_8_resolution_ledger():
    """criterion 8: cusp ledger is (2,1),(3,2),(6,4) with lct 5/6; component-case coefficients are lam*(j*d+1) - 2*j"""
    tree = resolve_over_origin(P("x^2 + y^3"))
    assert sorted((d.m, d.a) for d in tree.divisors()) == [(2, 1), (3, 2), (6, 4)]
    assert lct_from_tree(tree) == Fraction(5, 6)
    for d in range(3, 7):
        for k in range((d - 1) // 2, d - 1):
            lam = Fraction(2 * k + 1, k * d + 1)
            f = construct_witness(d, lam)
            analysis = analyze_high_mult(f)
            assert analysis.line_is_component and analysis.k_q == k
            tree = resolve_over_origin(f)
            coeffs = log_pullback_coefficients(tree, lam)
            chain = sorted(
                (div.m, div.a, div.id)
                for div in tree.divisors()
                if div.m % d == 1 and div.m > 1
            )
            assert len(chain) == k
            for j, (m, a, div_id) in enumerate(chain, start=1):
                assert (m, a) == (j * d + 1, 2 * j)
                assert coeffs[div_id] == lam * (j * d + 1) - 2 * j
